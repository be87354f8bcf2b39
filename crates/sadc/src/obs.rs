//! Preregistered metric handles for the SADC codec.
//!
//! The dictionary hit/miss split counts, per encoded token, whether the
//! token is a *learned* dictionary entry (a pair/triple/specialized
//! template on MIPS, a grouped opcode string on x86) or a base token the
//! dictionary could not improve — the direct observable for how much of
//! the ratio the dictionary pass earns.

use cce_obs::{Counter, Desc, SpanStat};

/// Wall-clock time spent in SADC block compression.
pub static COMPRESS_SPAN: SpanStat = SpanStat::new();
/// Wall-clock time spent in SADC block decompression.
pub static DECOMPRESS_SPAN: SpanStat = SpanStat::new();
/// Tokens that matched a learned dictionary entry.
pub static DICT_HITS: Counter = Counter::new();
/// Tokens left as base (non-dictionary) entries.
pub static DICT_MISSES: Counter = Counter::new();
/// Wall-clock time spent training SADC codecs (dictionary growth plus
/// Huffman tables).
pub static TRAIN_SPAN: SpanStat = SpanStat::new();

/// Records the dictionary outcome for one parsed block's token stream.
///
/// `base_tokens` is the number of ids below which a token is a base
/// entry rather than a learned one.
pub(crate) fn count_dict_tokens(tokens: &[usize], base_tokens: usize) {
    let hits = tokens.iter().filter(|&&t| t >= base_tokens).count() as u64;
    DICT_HITS.add(hits);
    DICT_MISSES.add(tokens.len() as u64 - hits);
}

/// Descriptors for every metric this crate registers.
pub fn descriptors() -> [Desc; 5] {
    [
        Desc::span("sadc.compress.span", "time compressing SADC blocks", &COMPRESS_SPAN),
        Desc::span("sadc.decompress.span", "time decompressing SADC blocks", &DECOMPRESS_SPAN),
        Desc::counter("sadc.dict.hits", "tokens matching a learned dictionary entry", &DICT_HITS),
        Desc::counter("sadc.dict.misses", "tokens left as base entries", &DICT_MISSES),
        Desc::span("sadc.train.span", "time training SADC codecs", &TRAIN_SPAN),
    ]
}
