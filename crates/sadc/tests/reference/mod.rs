//! Full-rescan reference trainers for SADC, kept only as an oracle.
//!
//! These are the dictionary growth loops as first written: every build
//! cycle rescans every block into `BTreeMap` counts, takes the first
//! strictly-best candidate in class (pair, triple, register, immediate)
//! then key order, and rewrites every block into a fresh allocation.  The
//! shipped trainers grow the dictionary incrementally (`src/tokens.rs`);
//! the tests below require both to produce byte-identical codecs.
//!
//! The module is compiled into the crate's unit tests (it needs the
//! crate-internal rule types), so it lives in the test tree and never in
//! the shipped library.

use crate::mips::{replace_matching_in_slice, Candidate, Template};
use crate::MipsSadcConfig;
use cce_isa::mips::Instruction;
use std::collections::BTreeMap;

/// Adjacent pair/triple counts over per-block token streams.
#[derive(Debug, Clone, Default)]
struct TokenStats {
    pairs: BTreeMap<(usize, usize), u32>,
    triples: BTreeMap<(usize, usize, usize), u32>,
}

impl TokenStats {
    /// Counts raw (overlapping) adjacent occurrences; windows never
    /// cross block boundaries.
    fn scan(blocks: &[Vec<usize>]) -> Self {
        let mut stats = Self::default();
        for block in blocks {
            for window in block.windows(2) {
                *stats.pairs.entry((window[0], window[1])).or_insert(0) += 1;
            }
            for window in block.windows(3) {
                *stats.triples.entry((window[0], window[1], window[2])).or_insert(0) += 1;
            }
        }
        stats
    }
}

/// Replaces non-overlapping occurrences of `pattern` in each block with
/// `replacement`, left to right, reallocating every block.
fn replace_in_blocks(blocks: &mut [Vec<usize>], pattern: &[usize], replacement: usize) {
    for block in blocks.iter_mut() {
        let mut out = Vec::with_capacity(block.len());
        let mut i = 0;
        while i < block.len() {
            if block[i..].starts_with(pattern) {
                out.push(replacement);
                i += pattern.len();
            } else {
                out.push(block[i]);
                i += 1;
            }
        }
        *block = out;
    }
}

/// The MIPS growth loop by full rescan; a `mips::Grow`.
pub(crate) fn grow_mips(
    templates: &mut Vec<Template>,
    token_blocks: &mut [Vec<usize>],
    insn_blocks: &[&[Instruction]],
    config: &MipsSadcConfig,
) -> Vec<Candidate> {
    let mut rules = Vec::new();
    while templates.len() < config.max_tokens {
        let Some((gain, candidate)) = best_candidate(templates, token_blocks, insn_blocks, config)
        else {
            break;
        };
        if gain <= 0 {
            break;
        }
        let new_id = templates.len();
        rules.push(candidate.clone());
        match candidate {
            Candidate::Pair(a, b) => {
                let mut items = templates[a].items.clone();
                items.extend(templates[b].items.iter().cloned());
                templates.push(Template { items });
                replace_in_blocks(token_blocks, &[a, b], new_id);
            }
            Candidate::Triple(a, b, c) => {
                let mut items = templates[a].items.clone();
                items.extend(templates[b].items.iter().cloned());
                items.extend(templates[c].items.iter().cloned());
                templates.push(Template { items });
                replace_in_blocks(token_blocks, &[a, b, c], new_id);
            }
            Candidate::Regs(t, regs) => {
                let mut items = templates[t].items.clone();
                items[0].fixed_regs = Some(regs.clone());
                templates.push(Template { items });
                for (tokens, block) in token_blocks.iter_mut().zip(insn_blocks) {
                    replace_matching_in_slice(templates, tokens, block, t, new_id, |insn| {
                        insn.register_fields() == regs
                    });
                }
            }
            Candidate::Imm(t, imm) => {
                let mut items = templates[t].items.clone();
                items[0].fixed_imm = Some(imm);
                templates.push(Template { items });
                for (tokens, block) in token_blocks.iter_mut().zip(insn_blocks) {
                    replace_matching_in_slice(templates, tokens, block, t, new_id, |insn| {
                        insn.imm16() == Some(imm)
                    });
                }
            }
        }
    }
    rules
}

/// Scans all candidate classes and returns the best (gain, candidate).
fn best_candidate(
    templates: &[Template],
    token_blocks: &[Vec<usize>],
    insn_blocks: &[&[Instruction]],
    config: &MipsSadcConfig,
) -> Option<(i64, Candidate)> {
    let mut best: Option<(i64, Candidate)> = None;
    let mut consider = |gain: i64, candidate: Candidate| {
        if best.as_ref().is_none_or(|(g, _)| gain > *g) {
            best = Some((gain, candidate));
        }
    };

    if config.groups {
        let stats = TokenStats::scan(token_blocks);
        for (&(a, b), &f) in &stats.pairs {
            let storage = (templates[a].storage_bytes() + templates[b].storage_bytes()) as i64 - 1;
            consider(i64::from(f) - storage, Candidate::Pair(a, b));
        }
        for (&(a, b, c), &f) in &stats.triples {
            let storage = (templates[a].storage_bytes()
                + templates[b].storage_bytes()
                + templates[c].storage_bytes()) as i64
                - 2;
            consider(2 * i64::from(f) - storage, Candidate::Triple(a, b, c));
        }
    }

    if config.reg_specialization || config.imm_specialization {
        let mut reg_counts: BTreeMap<(usize, Vec<u8>), u32> = BTreeMap::new();
        let mut imm_counts: BTreeMap<(usize, u16), u32> = BTreeMap::new();
        for (tokens, block) in token_blocks.iter().zip(insn_blocks) {
            let mut cursor = 0usize;
            for &t in tokens {
                let template = &templates[t];
                if template.items.len() == 1 {
                    let item = &template.items[0];
                    let insn = &block[cursor];
                    if config.reg_specialization
                        && item.fixed_regs.is_none()
                        && !item.op.operand_spec().reg_fields.is_empty()
                    {
                        *reg_counts.entry((t, insn.register_fields())).or_insert(0) += 1;
                    }
                    if config.imm_specialization && item.stream_imm16() {
                        *imm_counts.entry((t, insn.imm16().expect("imm16 op"))).or_insert(0) += 1;
                    }
                }
                cursor += template.items.len();
            }
        }
        for ((t, regs), f) in reg_counts {
            let saved = i64::from(f) * regs.len() as i64;
            let storage = (templates[t].storage_bytes() + regs.len()) as i64;
            consider(saved - storage, Candidate::Regs(t, regs));
        }
        for ((t, imm), f) in imm_counts {
            let gain = 2 * i64::from(f) - (templates[t].storage_bytes() + 2) as i64;
            consider(gain, Candidate::Imm(t, imm));
        }
    }
    best
}

/// The x86 growth loop by full rescan; an `x86::Grow`.
pub(crate) fn grow_x86(
    templates: &mut Vec<Vec<usize>>,
    token_blocks: &mut [Vec<usize>],
    base_strings: &[Vec<u8>],
    max_tokens: usize,
) -> Vec<Vec<usize>> {
    let mut rules = Vec::new();
    while templates.len() < max_tokens {
        let stats = TokenStats::scan(token_blocks);
        let storage = |t: usize| -> i64 {
            templates[t].iter().map(|&b| base_strings[b].len() as i64 + 1).sum()
        };
        let mut best: Option<(i64, Vec<usize>)> = None;
        for (&(a, b), &f) in &stats.pairs {
            let gain = i64::from(f) - (storage(a) + storage(b) + 1);
            if best.as_ref().is_none_or(|(g, _)| gain > *g) {
                best = Some((gain, vec![a, b]));
            }
        }
        for (&(a, b, c), &f) in &stats.triples {
            let gain = 2 * i64::from(f) - (storage(a) + storage(b) + storage(c) + 1);
            if best.as_ref().is_none_or(|(g, _)| gain > *g) {
                best = Some((gain, vec![a, b, c]));
            }
        }
        let Some((gain, pattern)) = best else { break };
        if gain <= 0 {
            break;
        }
        let new_id = templates.len();
        let expansion: Vec<usize> = pattern.iter().flat_map(|&t| templates[t].clone()).collect();
        templates.push(expansion);
        replace_in_blocks(token_blocks, &pattern, new_id);
        rules.push(pattern);
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MipsSadc, X86Sadc, X86SadcConfig};
    use cce_codec::CodecError;
    use cce_isa::mips::{encode_text, ImmKind, Operation};
    use cce_isa::x86::asm::{self, reg, Alu};
    use cce_rng::prop::prelude::*;
    use cce_workload::{generate_mips_seeded, generate_x86_seeded, Spec95};
    use std::time::Instant;

    const MAX_TOKENS: [usize; 3] = [Operation::COUNT + 8, 128, 256];
    const BLOCK_SIZES: [usize; 3] = [16, 32, 64];

    /// The serialized codec (rules plus Huffman books), or the error text.
    fn model<T>(
        trained: Result<T, CodecError>,
        to_bytes: fn(&T) -> Vec<u8>,
    ) -> Result<Vec<u8>, String> {
        trained.as_ref().map(to_bytes).map_err(ToString::to_string)
    }

    /// Trains `text` with both growth loops; the codecs must serialize to
    /// the same bytes.
    fn assert_mips_matches(text: &[u8], config: MipsSadcConfig) -> Result<(), TestCaseError> {
        let fast = model(MipsSadc::train(text, config), MipsSadc::to_bytes);
        let oracle = model(MipsSadc::train_with(text, config, grow_mips), MipsSadc::to_bytes);
        prop_assert!(fast.is_ok(), "training failed: {:?}", fast);
        prop_assert_eq!(fast, oracle, "config {:?}", config);
        Ok(())
    }

    /// [`assert_mips_matches`] for x86.
    fn assert_x86_matches(text: &[u8], config: X86SadcConfig) -> Result<(), TestCaseError> {
        let fast = model(X86Sadc::train(text, config), X86Sadc::to_bytes);
        let oracle = model(X86Sadc::train_with(text, config, grow_x86), X86Sadc::to_bytes);
        prop_assert_eq!(fast, oracle, "config {:?}", config);
        Ok(())
    }

    /// One of the 8 candidate-class switch combinations, a token limit
    /// and a block size.
    fn mips_config() -> impl Strategy<Value = MipsSadcConfig> {
        (0u8..8, 0usize..MAX_TOKENS.len(), 0usize..BLOCK_SIZES.len()).prop_map(
            |(switches, tokens, block)| MipsSadcConfig {
                block_size: BLOCK_SIZES[block],
                max_tokens: MAX_TOKENS[tokens],
                groups: switches & 1 != 0,
                reg_specialization: switches & 2 != 0,
                imm_specialization: switches & 4 != 0,
            },
        )
    }

    fn mips_instruction() -> impl Strategy<Value = Instruction> {
        (
            0u8..Operation::COUNT as u8,
            prop::collection::vec(0u8..32, 4),
            any::<u16>(),
            0u32..1 << 26,
        )
            .prop_map(|(id, regs, imm16, imm26)| {
                let op = Operation::from_id(id);
                let spec = op.operand_spec();
                let regs = &regs[..spec.reg_fields.len()];
                let imm16 = matches!(spec.imm, ImmKind::Imm16).then_some(imm16);
                let imm26 = matches!(spec.imm, ImmKind::Imm26).then_some(imm26);
                Instruction::assemble(op, regs, imm16, imm26)
            })
    }

    /// About `bytes` of generated code imitating a random SPEC95 profile.
    fn generated_mips(profile: prop::sample::Index, seed: u64, bytes: usize) -> Vec<u8> {
        let profile = &Spec95::ALL[profile.index(Spec95::ALL.len())];
        encode_text(&generate_mips_seeded(profile, bytes as f64 / profile.text_bytes as f64, seed))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn mips_matches_rescan_on_random_programs(
            insns in prop::collection::vec(mips_instruction(), 1..300),
            config in mips_config(),
        ) {
            assert_mips_matches(&encode_text(&insns), config)?;
        }

        #[test]
        fn mips_matches_rescan_on_generated_programs(
            profile in any::<prop::sample::Index>(),
            seed in any::<u64>(),
            bytes in 512usize..6144,
            config in mips_config(),
        ) {
            assert_mips_matches(&generated_mips(profile, seed, bytes), config)?;
        }

        #[test]
        fn mips_matches_rescan_on_one_repeated_instruction(
            insn in mips_instruction(),
            reps in 2usize..400,
            config in mips_config(),
        ) {
            // Every pair, triple and specialization ties with its
            // neighbours in count: only the tie-break decides.
            assert_mips_matches(&encode_text(&vec![insn; reps]), config)?;
        }

        #[test]
        fn mips_matches_rescan_on_alternating_idioms(
            first in prop::collection::vec(mips_instruction(), 1..4),
            second in prop::collection::vec(mips_instruction(), 1..4),
            reps in 2usize..120,
            config in mips_config(),
        ) {
            let insns: Vec<Instruction> =
                (0..reps).flat_map(|_| first.iter().chain(&second).copied()).collect();
            assert_mips_matches(&encode_text(&insns), config)?;
        }

        #[test]
        fn x86_matches_rescan_on_generated_programs(
            profile in any::<prop::sample::Index>(),
            seed in any::<u64>(),
            bytes in 512usize..6144,
            tokens in 0usize..MAX_TOKENS.len(),
            block in 0usize..BLOCK_SIZES.len(),
        ) {
            let profile = &Spec95::ALL[profile.index(Spec95::ALL.len())];
            let text = generate_x86_seeded(profile, bytes as f64 / profile.text_bytes as f64, seed);
            let config = X86SadcConfig {
                block_size: BLOCK_SIZES[block],
                max_tokens: MAX_TOKENS[tokens],
                groups: true,
            };
            assert_x86_matches(&text, config)?;
        }

        #[test]
        fn x86_matches_rescan_on_alternating_idioms(
            reps in 2usize..300,
            imm in any::<i8>(),
            block in 0usize..BLOCK_SIZES.len(),
        ) {
            let prologue = [asm::push_r(reg::EBP), asm::mov_rr(reg::EBP, reg::ESP)].concat();
            let body = [asm::alu_r_imm8(Alu::Add, reg::EAX, imm), asm::leave(), asm::ret()].concat();
            let config = X86SadcConfig { block_size: BLOCK_SIZES[block], ..Default::default() };
            assert_x86_matches(&prologue.repeat(reps), config)?;
            assert_x86_matches(&[prologue, body].concat().repeat(reps), config)?;
        }
    }

    /// Trains `text` with both loops, prints the timings, and requires
    /// identical codecs.
    fn time_both<T>(
        label: &str,
        text: &[u8],
        fast: impl Fn() -> Result<T, CodecError>,
        oracle: impl Fn() -> Result<T, CodecError>,
        to_bytes: fn(&T) -> Vec<u8>,
    ) {
        let start = Instant::now();
        let fast = model(fast(), to_bytes);
        let fast_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let oracle = model(oracle(), to_bytes);
        let oracle_s = start.elapsed().as_secs_f64();
        eprintln!(
            "{label}: {} KiB, rescan {oracle_s:.3} s, incremental {fast_s:.3} s, {:.1}x",
            text.len() / 1024,
            oracle_s / fast_s
        );
        assert!(fast.is_ok(), "{label}: {fast:?}");
        assert!(fast == oracle, "{label}: incremental and rescan codecs differ");
    }

    /// The benchmark's `sadc-train` inputs (seed 1), plus 1 MiB of each
    /// ISA for the speedup figure.  Run in release mode:
    /// `cargo test --release -p cce-sadc -- --ignored --nocapture`.
    #[test]
    #[ignore = "benchmark scale; run in release mode with --ignored"]
    fn incremental_matches_rescan_at_benchmark_scale() {
        let profile = |name| Spec95::by_name(name).expect("SPEC95 profile");
        for (label, scale) in [("go x4 (MIPS)", 4.0), ("go x16 (MIPS)", 16.0)] {
            let text = encode_text(&generate_mips_seeded(profile("go"), scale, 1));
            let config = MipsSadcConfig::default();
            time_both(
                label,
                &text,
                || MipsSadc::train(&text, config),
                || MipsSadc::train_with(&text, config, grow_mips),
                MipsSadc::to_bytes,
            );
        }
        for (label, scale) in [("gcc x1 (x86)", 1.0), ("gcc x4.5 (x86)", 4.5)] {
            let text = generate_x86_seeded(profile("gcc"), scale, 1);
            let config = X86SadcConfig::default();
            time_both(
                label,
                &text,
                || X86Sadc::train(&text, config),
                || X86Sadc::train_with(&text, config, grow_x86),
                X86Sadc::to_bytes,
            );
        }
    }
}
