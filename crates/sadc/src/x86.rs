//! SADC for x86 (Pentium Pro): three byte streams, dictionary over opcode
//! byte strings.
//!
//! As the paper notes, a Pentium SADC decompressor needs no instruction
//! generator: the streams are consecutive bytes.  What it *does* need is to
//! know, per instruction, how many ModRM/SIB and displacement/immediate
//! bytes to pull — which the opcode (plus the ModRM byte itself) fully
//! determines.  [`cce_isa::x86::progressive_layout`] supplies exactly that,
//! so the decompressor here reconstructs instructions incrementally:
//! dictionary token → opcode bytes → ModRM/SIB (Huffman-decoded as needed)
//! → displacement/immediate bytes.

use crate::mips::{code_error, corrupt_block};
use crate::tokens::{self, replace_in_slice, Alphabet, Key};
use cce_bitstream::{BitReader, BitWriter};
use cce_codec::{BlockCodec, BlockImage, CodecError};
use cce_huffman::CodeBook;
use cce_isa::x86::{decode_layout, progressive_layout, DecodeLayoutError, LayoutProgress};
use std::collections::HashMap;
use std::ops::Range;

/// Display name used in errors and tables.
const NAME: &str = "SADC";

/// Configuration for [`X86Sadc::train`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct X86SadcConfig {
    /// Cache block size in bytes (blocks are instruction-aligned, so the
    /// actual uncompressed block sizes straddle this value slightly).
    pub block_size: usize,
    /// Maximum dictionary size (≤ 256 so indices fit a byte).
    pub max_tokens: usize,
    /// Enable opcode-group candidates.
    pub groups: bool,
}

impl Default for X86SadcConfig {
    fn default() -> Self {
        Self { block_size: 32, max_tokens: 256, groups: true }
    }
}

/// One decoded instruction's bytes, split into its three stream slices
/// (an x86 instruction holds them in stream order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InsnParts<'a> {
    bytes: &'a [u8],
    /// Prefix + opcode bytes at the front of `bytes`.
    opcode_len: usize,
    /// ModRM + SIB bytes after them; displacement + immediate follow.
    modrm_len: usize,
}

impl<'a> InsnParts<'a> {
    /// Prefix + opcode bytes.
    fn opcode(&self) -> &'a [u8] {
        &self.bytes[..self.opcode_len]
    }

    /// ModRM + SIB bytes.
    fn modrm_sib(&self) -> &'a [u8] {
        &self.bytes[self.opcode_len..self.opcode_len + self.modrm_len]
    }

    /// Displacement + immediate bytes.
    fn imm_disp(&self) -> &'a [u8] {
        &self.bytes[self.opcode_len + self.modrm_len..]
    }
}

/// The trained x86 SADC codec.
#[derive(Debug, Clone)]
pub struct X86Sadc {
    config: X86SadcConfig,
    /// Base token id → prefix+opcode byte string.
    base_strings: Vec<Vec<u8>>,
    /// Prefix+opcode byte string → base token id.
    string_to_id: HashMap<Vec<u8>, usize>,
    /// Token id → base-token expansion (singletons for base tokens).
    templates: Vec<Vec<usize>>,
    /// Group build rules in insertion order (replayed at compress time).
    rules: Vec<Vec<usize>>,
    token_book: CodeBook,
    modrm_book: Option<CodeBook>,
    imm_book: Option<CodeBook>,
}

impl X86Sadc {
    /// Builds the dictionary and Huffman tables for `text`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Train`] for empty or undecodable text, a zero
    /// block size, or a program whose distinct opcode strings exceed the
    /// dictionary's token budget.
    pub fn train(text: &[u8], config: X86SadcConfig) -> Result<Self, CodecError> {
        Self::train_with(text, config, grow_dictionary)
    }

    /// [`Self::train`] with the dictionary growth loop supplied by `grow`.
    pub(crate) fn train_with(
        text: &[u8],
        config: X86SadcConfig,
        grow: Grow,
    ) -> Result<Self, CodecError> {
        let _span = crate::obs::TRAIN_SPAN.time();
        if text.is_empty() {
            return Err(CodecError::train(NAME, "cannot train on an empty text section"));
        }
        if config.block_size == 0 {
            return Err(CodecError::train(NAME, "block size must be positive"));
        }
        let parts = parse_instructions(text)?;

        // Assign base token ids to distinct opcode strings, most frequent
        // first (shorter Huffman codes for hot opcodes).
        let mut string_freq: HashMap<&[u8], u32> = HashMap::new();
        for p in &parts {
            *string_freq.entry(p.opcode()).or_insert(0) += 1;
        }
        let mut ordered: Vec<(&[u8], u32)> = string_freq.into_iter().collect();
        ordered.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        // Leave room for at least a handful of group entries.
        if ordered.len() > config.max_tokens.saturating_sub(8) {
            return Err(CodecError::train(
                NAME,
                format!(
                    "{} distinct opcode strings exceed the {}-token dictionary",
                    ordered.len(),
                    config.max_tokens
                ),
            ));
        }
        let base_strings: Vec<Vec<u8>> = ordered.iter().map(|(s, _)| s.to_vec()).collect();
        let string_to_id = string_ids(&base_strings);

        // Blocks: instruction-aligned groups of roughly block_size bytes.
        let insn_blocks = group_blocks(&parts, config.block_size);
        let mut templates: Vec<Vec<usize>> = (0..base_strings.len()).map(|i| vec![i]).collect();
        let mut token_blocks: Vec<Vec<usize>> = insn_blocks
            .iter()
            .map(|range| parts[range.clone()].iter().map(|p| string_to_id[p.opcode()]).collect())
            .collect();

        let rules = if config.groups {
            grow(&mut templates, &mut token_blocks, &base_strings, config.max_tokens)
        } else {
            Vec::new()
        };

        // Huffman statistics.
        let mut token_freq = vec![0u64; templates.len()];
        for block in &token_blocks {
            for &t in block {
                token_freq[t] += 1;
            }
        }
        let mut modrm_freq = [0u64; 256];
        let mut imm_freq = [0u64; 256];
        for p in &parts {
            for &b in p.modrm_sib() {
                modrm_freq[usize::from(b)] += 1;
            }
            for &b in p.imm_disp() {
                imm_freq[usize::from(b)] += 1;
            }
        }
        let token_book =
            CodeBook::from_frequencies(&token_freq, 15).expect("programs are non-empty");
        let modrm_book = CodeBook::from_frequencies(&modrm_freq, 15).ok();
        let imm_book = CodeBook::from_frequencies(&imm_freq, 15).ok();

        Ok(Self {
            config,
            base_strings,
            string_to_id,
            templates,
            rules,
            token_book,
            modrm_book,
            imm_book,
        })
    }

    /// Dictionary storage: the base opcode-string table plus group entries.
    pub fn dict_bytes(&self) -> usize {
        let base: usize = self.base_strings.iter().map(|s| 1 + s.len()).sum();
        let groups: usize = self.templates[self.base_strings.len()..]
            .iter()
            .map(|expansion| 1 + expansion.len())
            .sum();
        base + groups
    }

    /// Serialized Huffman table size (4-bit code lengths per symbol).
    pub fn table_bytes(&self) -> usize {
        let mut bits = self.templates.len() * 4;
        for book in [&self.modrm_book, &self.imm_book].into_iter().flatten() {
            bits += book.lengths().len() * 4;
        }
        bits.div_ceil(8)
    }

    /// Number of dictionary tokens (base + groups).
    pub fn token_count(&self) -> usize {
        self.templates.len()
    }

    /// The configuration this codec was trained with.
    pub fn config(&self) -> &X86SadcConfig {
        &self.config
    }

    /// The base opcode strings (crate-internal, for the serializer).
    pub(crate) fn base_strings(&self) -> &[Vec<u8>] {
        &self.base_strings
    }

    /// The group rules (crate-internal, for the serializer).
    pub(crate) fn rules(&self) -> &[Vec<usize>] {
        &self.rules
    }

    /// The Huffman books (crate-internal, for the serializer).
    pub(crate) fn books(&self) -> (&CodeBook, Option<&CodeBook>, Option<&CodeBook>) {
        (&self.token_book, self.modrm_book.as_ref(), self.imm_book.as_ref())
    }

    /// Reconstructs the token table by replaying `rules` over the base
    /// tokens (crate-internal, for the deserializer).
    pub(crate) fn templates_from_rules(
        base_count: usize,
        rules: &[Vec<usize>],
    ) -> Result<Vec<Vec<usize>>, &'static str> {
        let mut templates: Vec<Vec<usize>> = (0..base_count).map(|i| vec![i]).collect();
        for pattern in rules {
            if pattern.len() < 2 {
                return Err("group rule shorter than a pair");
            }
            let mut expansion = Vec::new();
            for &t in pattern {
                let items = templates.get(t).ok_or("rule references an unknown token")?;
                expansion.extend(items.iter().copied());
            }
            templates.push(expansion);
        }
        Ok(templates)
    }

    /// Reassembles a codec from serialized parts (crate-internal).
    pub(crate) fn from_parts(
        config: X86SadcConfig,
        base_strings: Vec<Vec<u8>>,
        templates: Vec<Vec<usize>>,
        rules: Vec<Vec<usize>>,
        token_book: CodeBook,
        modrm_book: Option<CodeBook>,
        imm_book: Option<CodeBook>,
    ) -> Self {
        let string_to_id = string_ids(&base_strings);
        Self {
            config,
            base_strings,
            string_to_id,
            templates,
            rules,
            token_book,
            modrm_book,
            imm_book,
        }
    }

    /// Compresses `text` (the training text or statistically identical).
    ///
    /// Convenience wrapper over [`BlockCodec::compress`].
    ///
    /// # Panics
    ///
    /// Panics if `text` contains instructions or symbols absent at
    /// training time; use [`BlockCodec::compress`] to handle those cases.
    pub fn compress(&self, text: &[u8]) -> BlockImage {
        BlockCodec::compress(self, text).expect("compress requires decodable, trained text")
    }

    /// Encodes one instruction-aligned group of stream parts.
    fn compress_parts(&self, block_parts: &[InsnParts]) -> Result<Vec<u8>, CodecError> {
        let _span = crate::obs::COMPRESS_SPAN.time();
        let untrained =
            |stream: &str| CodecError::train(NAME, format!("the {stream} stream is untrained"));
        let encode = |w: &mut BitWriter, book: &CodeBook, sym: u16, stream: &str| {
            if book.length(sym) == 0 {
                return Err(CodecError::train(
                    NAME,
                    format!("{stream} symbol {sym:#x} was absent from the training program"),
                ));
            }
            book.encode(w, sym);
            Ok(())
        };
        let mut tokens = Vec::with_capacity(block_parts.len());
        for p in block_parts {
            let id = *self.string_to_id.get(p.opcode()).ok_or_else(|| {
                CodecError::train(
                    NAME,
                    format!(
                        "opcode string {:02x?} was absent from the training program",
                        p.opcode()
                    ),
                )
            })?;
            tokens.push(id);
        }
        for (i, pattern) in self.rules.iter().enumerate() {
            replace_in_slice(&mut tokens, pattern, self.base_strings.len() + i);
        }

        crate::obs::count_dict_tokens(&tokens, self.base_strings.len());
        let mut w = BitWriter::new();
        let mut cursor = 0usize;
        for &t in &tokens {
            encode(&mut w, &self.token_book, t as u16, "token")?;
            for _ in 0..self.templates[t].len() {
                let p = &block_parts[cursor];
                cursor += 1;
                if !p.modrm_sib().is_empty() {
                    let book = self.modrm_book.as_ref().ok_or_else(|| untrained("ModRM"))?;
                    for &b in p.modrm_sib() {
                        encode(&mut w, book, u16::from(b), "ModRM")?;
                    }
                }
                if !p.imm_disp().is_empty() {
                    let book = self.imm_book.as_ref().ok_or_else(|| untrained("immediate"))?;
                    for &b in p.imm_disp() {
                        encode(&mut w, book, u16::from(b), "immediate")?;
                    }
                }
            }
        }
        w.align_to_byte();
        Ok(w.into_bytes())
    }

    /// Decompresses one block of `out_len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] when the block does not decode
    /// against this codec's dictionary and Huffman books.
    pub fn decompress_block(&self, bytes: &[u8], out_len: usize) -> Result<Vec<u8>, CodecError> {
        let _span = crate::obs::DECOMPRESS_SPAN.time();
        let mut r = BitReader::new(bytes);
        let mut out = Vec::with_capacity(out_len);
        while out.len() < out_len {
            let t = usize::from(self.token_book.decode(&mut r).map_err(code_error)?);
            let expansion = self.templates.get(t).ok_or_else(corrupt_block)?;
            for &base in expansion {
                let opcode = &self.base_strings[base];
                out.extend_from_slice(opcode);
                // Reconstruct the rest of the instruction incrementally.
                let mut modrm = None;
                let mut sib = None;
                let layout = loop {
                    match progressive_layout(opcode, modrm, sib).map_err(|_| corrupt_block())? {
                        LayoutProgress::NeedModrm => {
                            let book = self.modrm_book.as_ref().ok_or_else(corrupt_block)?;
                            modrm = Some(book.decode(&mut r).map_err(code_error)? as u8);
                        }
                        LayoutProgress::NeedSib => {
                            let book = self.modrm_book.as_ref().ok_or_else(corrupt_block)?;
                            sib = Some(book.decode(&mut r).map_err(code_error)? as u8);
                        }
                        LayoutProgress::Complete(layout) => break layout,
                    }
                };
                if let Some(m) = modrm {
                    out.push(m);
                }
                if let Some(s) = sib {
                    out.push(s);
                }
                let tail = usize::from(layout.disp_len) + usize::from(layout.imm_len);
                for _ in 0..tail {
                    let book = self.imm_book.as_ref().ok_or_else(corrupt_block)?;
                    out.push(book.decode(&mut r).map_err(code_error)? as u8);
                }
            }
        }
        if out.len() != out_len {
            return Err(corrupt_block());
        }
        Ok(out)
    }

    /// Decompresses a whole image.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] when any block fails to decode.
    pub fn decompress(&self, image: &BlockImage) -> Result<Vec<u8>, CodecError> {
        BlockCodec::decompress(self, image)
    }
}

impl BlockCodec for X86Sadc {
    fn name(&self) -> &'static str {
        NAME
    }

    fn block_size(&self) -> usize {
        self.config.block_size
    }

    fn model_bytes(&self) -> usize {
        self.dict_bytes() + self.table_bytes()
    }

    fn to_bytes(&self) -> Vec<u8> {
        Self::to_bytes(self)
    }

    /// Blocks are instruction-aligned: a block closes once it reaches the
    /// target size, so uncompressed blocks straddle `block_size` slightly.
    fn block_ranges(&self, text: &[u8]) -> Result<Vec<Range<usize>>, CodecError> {
        let parts = parse_instructions(text)?;
        let mut offsets = Vec::with_capacity(parts.len() + 1);
        let mut end = 0usize;
        offsets.push(0);
        for p in &parts {
            end += p.bytes.len();
            offsets.push(end);
        }
        Ok(group_blocks(&parts, self.config.block_size)
            .into_iter()
            .map(|r| offsets[r.start]..offsets[r.end])
            .collect())
    }

    /// Streaming boundary finder matching [`Self::block_ranges`]: greedy
    /// instruction accumulation closing a block at `block_size`, so the
    /// streaming pipeline cuts the exact blocks the buffered path does.
    fn chunker(&self) -> Box<dyn cce_codec::Chunker + '_> {
        Box::new(X86Chunker { block_size: self.config.block_size, consumed: 0 })
    }

    fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, CodecError> {
        // Chunks from `block_ranges` are instruction-aligned, so each one
        // re-parses standalone to exactly its instructions' stream parts.
        let parts = parse_instructions(chunk)?;
        self.compress_parts(&parts)
    }

    fn decompress_block(&self, block: &[u8], out_len: usize) -> Result<Vec<u8>, CodecError> {
        Self::decompress_block(self, block, out_len)
    }
}

/// Maps each base opcode string to its token id.
fn string_ids(base_strings: &[Vec<u8>]) -> HashMap<Vec<u8>, usize> {
    base_strings.iter().enumerate().map(|(i, s)| (s.clone(), i)).collect()
}

/// A dictionary growth loop: appends group expansions to the templates,
/// rewrites the per-block token streams with them, and returns the group
/// rules in insertion order.  Arguments: templates, token streams, base
/// opcode strings, token limit.
pub(crate) type Grow =
    fn(&mut Vec<Vec<usize>>, &mut [Vec<usize>], &[Vec<u8>], usize) -> Vec<Vec<usize>>;

/// The incremental growth loop ([`crate::tokens::grow`]) over opcode-string
/// groups; a [`Grow`].
fn grow_dictionary(
    templates: &mut Vec<Vec<usize>>,
    token_blocks: &mut [Vec<usize>],
    base_strings: &[Vec<u8>],
    max_tokens: usize,
) -> Vec<Vec<usize>> {
    let mut alphabet = X86Alphabet { storage: Vec::new(), templates, base_strings };
    alphabet.storage = alphabet.templates.iter().map(|t| alphabet.storage_of(t)).collect();
    let first = alphabet.templates.len();
    tokens::grow(&mut alphabet, token_blocks, true, first, max_tokens)
        .into_iter()
        .map(|key| tokens::group(key).expect("x86 candidates are groups").to_vec())
        .collect()
}

/// x86 candidates for the growth loop: opcode-string groups only.
struct X86Alphabet<'a> {
    templates: &'a mut Vec<Vec<usize>>,
    /// Per token: dictionary bytes of its expansion (each base string
    /// plus a length byte).
    storage: Vec<i64>,
    base_strings: &'a [Vec<u8>],
}

impl X86Alphabet<'_> {
    fn storage_of(&self, expansion: &[usize]) -> i64 {
        expansion.iter().map(|&b| self.base_strings[b].len() as i64 + 1).sum()
    }
}

impl Alphabet for X86Alphabet<'_> {
    fn gain(&self, key: Key, count: u32) -> i64 {
        let pattern = tokens::group(key).expect("x86 candidates are groups");
        let storage: i64 = pattern.iter().map(|&t| self.storage[t]).sum();
        (pattern.len() as i64 - 1) * i64::from(count) - (storage + 1)
    }

    fn insert(&mut self, key: Key) {
        let pattern = tokens::group(key).expect("x86 candidates are groups");
        let expansion: Vec<usize> =
            pattern.iter().flat_map(|&t| self.templates[t].iter().copied()).collect();
        self.storage.push(self.storage_of(&expansion));
        self.templates.push(expansion);
    }
}

/// Splits `text` into per-instruction stream parts.
fn parse_instructions(text: &[u8]) -> Result<Vec<InsnParts<'_>>, CodecError> {
    let mut parts = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let layout = decode_layout(rest).map_err(|cause| {
            let offset = text.len() - rest.len();
            CodecError::train(NAME, format!("undecodable instruction at offset {offset}: {cause}"))
        })?;
        let (bytes, tail) = rest.split_at(layout.total_len());
        parts.push(InsnParts {
            bytes,
            opcode_len: layout.opcode_stream_len(),
            modrm_len: layout.modrm_stream_len(),
        });
        rest = tail;
    }
    Ok(parts)
}

/// Incremental block-boundary finder for the streaming pipeline.
///
/// Replays the same greedy rule as [`group_blocks`]: accumulate whole
/// instructions until the block reaches `block_size`. Because each
/// instruction's length depends only on its own bytes and the grouping
/// is prefix-stable, boundaries found over a growing window equal the
/// ones [`X86Sadc::block_ranges`] computes over the full text.
struct X86Chunker {
    block_size: usize,
    /// Bytes already released as blocks — makes error offsets absolute,
    /// matching the buffered [`parse_instructions`] path.
    consumed: usize,
}

impl cce_codec::Chunker for X86Chunker {
    fn next_boundary(&mut self, buf: &[u8], eof: bool) -> Result<Option<usize>, CodecError> {
        let mut end = 0usize;
        while end < buf.len() {
            match decode_layout(&buf[end..]) {
                Ok(layout) => {
                    end += layout.total_len();
                    if end >= self.block_size {
                        self.consumed += end;
                        return Ok(Some(end));
                    }
                }
                // Mid-stream truncation just means the window is short;
                // at end of input it is a real decode failure.
                Err(DecodeLayoutError::Truncated) if !eof => return Ok(None),
                Err(cause) => {
                    return Err(CodecError::train(
                        NAME,
                        format!(
                            "undecodable instruction at offset {}: {cause}",
                            self.consumed + end
                        ),
                    ))
                }
            }
        }
        if eof && end > 0 {
            // Trailing partial block, mirroring `group_blocks`.
            self.consumed += end;
            return Ok(Some(end));
        }
        Ok(None)
    }
}

/// Groups instructions into blocks of roughly `block_size` uncompressed
/// bytes (an instruction joins the current block while it is under size).
fn group_blocks(parts: &[InsnParts], block_size: usize) -> Vec<std::ops::Range<usize>> {
    let mut blocks = Vec::new();
    let mut start = 0usize;
    let mut size = 0usize;
    for (i, p) in parts.iter().enumerate() {
        size += p.bytes.len();
        if size >= block_size {
            blocks.push(start..i + 1);
            start = i + 1;
            size = 0;
        }
    }
    if start < parts.len() {
        blocks.push(start..parts.len());
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_isa::x86::asm::{self, reg, Alu, Cc};

    fn idiomatic_program(reps: usize) -> Vec<u8> {
        let mut text = Vec::new();
        for i in 0..reps {
            text.extend(asm::push_r(reg::EBP));
            text.extend(asm::mov_rr(reg::EBP, reg::ESP));
            text.extend(asm::mov_load(reg::EAX, reg::EBP, 8));
            text.extend(asm::alu_r_imm8(Alu::Add, reg::EAX, (i % 8) as i8));
            text.extend(asm::cmp_rr(reg::EAX, reg::ECX));
            text.extend(asm::jcc_rel8(Cc::Ne, -7));
            text.extend(asm::leave());
            text.extend(asm::ret());
        }
        text
    }

    #[test]
    fn round_trips_and_compresses() {
        let text = idiomatic_program(400);
        let codec = X86Sadc::train(&text, X86SadcConfig::default()).unwrap();
        let image = codec.compress(&text);
        assert_eq!(codec.decompress(&image).unwrap(), text);
        assert!(image.ratio() < 0.7, "ratio {}", image.ratio());
    }

    #[test]
    fn groups_are_learned() {
        let text = idiomatic_program(200);
        let codec = X86Sadc::train(&text, X86SadcConfig::default()).unwrap();
        assert!(codec.token_count() > codec.base_strings.len(), "expected group entries");
    }

    #[test]
    fn blocks_decode_independently() {
        let text = idiomatic_program(100);
        let codec = X86Sadc::train(&text, X86SadcConfig::default()).unwrap();
        let image = codec.compress(&text);
        let mut offset = 0usize;
        let mut slices = Vec::new();
        for i in 0..image.block_count() {
            let len = image.block_uncompressed_len(i);
            slices.push((i, offset, len));
            offset += len;
        }
        // Decode out of order.
        for &(i, start, len) in slices.iter().rev() {
            assert_eq!(
                codec.decompress_block(image.block(i), len).unwrap(),
                &text[start..start + len],
                "block {i}"
            );
        }
    }

    #[test]
    fn block_sizes_straddle_the_target() {
        let text = idiomatic_program(100);
        let codec = X86Sadc::train(&text, X86SadcConfig::default()).unwrap();
        let image = codec.compress(&text);
        let total: usize = (0..image.block_count()).map(|i| image.block_uncompressed_len(i)).sum();
        assert_eq!(total, text.len());
        for i in 0..image.block_count().saturating_sub(1) {
            let len = image.block_uncompressed_len(i);
            assert!((32..32 + 16).contains(&len), "block {i} len {len}");
        }
    }

    #[test]
    fn chunker_matches_block_ranges_at_any_window_growth() {
        use cce_codec::Chunker as _;
        let text = idiomatic_program(60);
        let codec = X86Sadc::train(&text, X86SadcConfig::default()).unwrap();
        let expected = BlockCodec::block_ranges(&codec, &text).unwrap();
        // Feed the chunker byte by byte — the worst-case window growth —
        // and require the exact boundaries of the buffered path.
        let mut chunker = BlockCodec::chunker(&codec);
        let mut boundaries = Vec::new();
        let mut start = 0usize;
        let mut window_end = 0usize;
        while start < text.len() {
            let eof = window_end == text.len();
            match chunker.next_boundary(&text[start..window_end], eof).unwrap() {
                Some(len) => {
                    boundaries.push(start..start + len);
                    start += len;
                }
                None => {
                    assert!(!eof, "chunker stalled at end of input");
                    window_end += 1;
                }
            }
        }
        assert_eq!(boundaries, expected);
    }

    #[test]
    fn read_source_cuts_block_ranges_from_reads_split_at_odd_offsets() {
        use cce_codec::{BlockSource as _, ReadSource};
        /// Returns 1 to 7 bytes per call.
        struct Dribble<'a>(&'a [u8], usize);
        impl std::io::Read for Dribble<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.1 += 1;
                let n = (self.1 % 7 + 1).min(buf.len()).min(self.0.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let text = idiomatic_program(60);
        let codec = X86Sadc::train(&text, X86SadcConfig::default()).unwrap();
        let expected: Vec<Vec<u8>> = BlockCodec::block_ranges(&codec, &text)
            .unwrap()
            .into_iter()
            .map(|range| text[range].to_vec())
            .collect();
        let mut source = ReadSource::new(Dribble(&text, 0), BlockCodec::chunker(&codec));
        let mut streamed = Vec::new();
        while let Some(block) = source.next_block().unwrap() {
            streamed.push(block);
        }
        assert_eq!(streamed, expected);
    }

    #[test]
    fn chunker_rejects_trailing_garbage_only_at_eof() {
        use cce_codec::Chunker as _;
        let mut text = idiomatic_program(2);
        text.push(0x67); // address-size prefix: rejected by the decoder
        let codec = X86Sadc::train(&idiomatic_program(60), X86SadcConfig::default()).unwrap();
        let serial_err = BlockCodec::block_ranges(&codec, &text).unwrap_err();
        let mut chunker = BlockCodec::chunker(&codec);
        let mut start = 0usize;
        let err = loop {
            match chunker.next_boundary(&text[start..], true) {
                Ok(Some(len)) => start += len,
                Ok(None) => panic!("expected a decode error"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.to_string(), serial_err.to_string());
    }

    #[test]
    fn groups_can_be_disabled() {
        let text = idiomatic_program(100);
        let config = X86SadcConfig { groups: false, ..Default::default() };
        let codec = X86Sadc::train(&text, config).unwrap();
        assert_eq!(codec.token_count(), codec.base_strings.len());
        let image = codec.compress(&text);
        assert_eq!(codec.decompress(&image).unwrap(), text);
    }

    #[test]
    fn train_validates_input() {
        let is_train_error = |result: Result<X86Sadc, CodecError>| {
            matches!(result.unwrap_err(), CodecError::Train { codec: "SADC", .. })
        };
        assert!(is_train_error(X86Sadc::train(&[], X86SadcConfig::default())));
        assert!(is_train_error(X86Sadc::train(&[0x0F, 0x06], X86SadcConfig::default())));
    }
}
