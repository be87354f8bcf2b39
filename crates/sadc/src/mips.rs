//! SADC for MIPS: dictionary over operations, registers and immediates.

use crate::tokens::{self, replace_in_slice, Alphabet, Key};
use cce_bitstream::{BitReader, BitWriter};
use cce_codec::{BlockCodec, BlockImage, CodecError};
use cce_huffman::CodeBook;
use cce_isa::mips::{decode_text, ImmKind, Instruction, Operation};
use std::ops::Range;

/// Display name used in errors and tables.
const NAME: &str = "SADC";

/// The error every corrupt-block path reports.
pub(crate) fn corrupt_block() -> CodecError {
    CodecError::corrupt(NAME, "block structure does not match the dictionary")
}

/// Maps a Huffman decode failure to a SADC-branded error.
pub(crate) fn code_error(e: cce_huffman::DecodeSymbolError) -> CodecError {
    CodecError::from(e).named(NAME)
}

/// One instruction slot of a dictionary [`Template`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TemplateItem {
    /// The operation this slot produces.
    pub op: Operation,
    /// Register bytes baked into the dictionary (the `jr $31` trick);
    /// `None` means the register stream supplies them.
    pub fixed_regs: Option<Vec<u8>>,
    /// 16-bit immediate baked into the dictionary; `None` means the
    /// immediate stream supplies it (only for ops that carry an imm16).
    pub fixed_imm: Option<u16>,
}

impl TemplateItem {
    fn base(op: Operation) -> Self {
        Self { op, fixed_regs: None, fixed_imm: None }
    }

    /// Register bytes this item pulls from the register stream.
    fn stream_regs(&self) -> usize {
        if self.fixed_regs.is_some() {
            0
        } else {
            self.op.operand_spec().reg_fields.len()
        }
    }

    /// Whether this item pulls a 16-bit immediate from the stream.
    pub(crate) fn stream_imm16(&self) -> bool {
        self.fixed_imm.is_none() && matches!(self.op.operand_spec().imm, ImmKind::Imm16)
    }

    /// Whether this item pulls a 26-bit immediate from the stream.
    fn stream_imm26(&self) -> bool {
        matches!(self.op.operand_spec().imm, ImmKind::Imm26)
    }
}

/// A dictionary entry: a sequence of (possibly specialized) instructions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Template {
    /// The instruction slots, in program order.
    pub items: Vec<TemplateItem>,
}

impl Template {
    /// Serialized dictionary cost in bytes: a header, one op id per item,
    /// the fixed register bytes, and two bytes per fixed immediate.
    pub fn storage_bytes(&self) -> usize {
        1 + self
            .items
            .iter()
            .map(|item| {
                1 + item.fixed_regs.as_ref().map_or(0, Vec::len)
                    + if item.fixed_imm.is_some() { 2 } else { 0 }
            })
            .sum::<usize>()
    }

    /// Instructions this template covers.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the template is empty (never true for built dictionaries).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Configuration for [`MipsSadc::train`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MipsSadcConfig {
    /// Cache block size in bytes.
    pub block_size: usize,
    /// Maximum dictionary size (indices must fit a byte: ≤ 256).
    pub max_tokens: usize,
    /// Enable opcode-group candidates (pairs/triples of adjacent tokens).
    pub groups: bool,
    /// Enable register-specialization candidates (`jr $31`-style).
    pub reg_specialization: bool,
    /// Enable immediate-specialization candidates.
    pub imm_specialization: bool,
}

impl Default for MipsSadcConfig {
    fn default() -> Self {
        Self {
            block_size: 32,
            max_tokens: 256,
            groups: true,
            reg_specialization: true,
            imm_specialization: true,
        }
    }
}

/// The best candidate found in one build cycle.
///
/// Also recorded in insertion order as the parse program: compressing any
/// text replays these rules over its base-token stream, so the parse is
/// identical to the one the dictionary was built (and the Huffman
/// statistics gathered) against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Candidate {
    Pair(usize, usize),
    Triple(usize, usize, usize),
    Regs(usize, Vec<u8>),
    Imm(usize, u16),
}

impl Candidate {
    /// The dictionary entry this rule adds to `templates`.
    pub(crate) fn template(&self, templates: &[Template]) -> Result<Template, &'static str> {
        let get = |t: &usize| templates.get(*t).ok_or("rule references an unknown token");
        let single = |t: &usize, what: &'static str| {
            let items = &get(t)?.items;
            if items.len() == 1 {
                Ok(items[0].clone())
            } else {
                Err(what)
            }
        };
        let items = match self {
            Candidate::Pair(a, b) => [get(a)?, get(b)?].map(|t| t.items.clone()).concat(),
            Candidate::Triple(a, b, c) => {
                [get(a)?, get(b)?, get(c)?].map(|t| t.items.clone()).concat()
            }
            Candidate::Regs(t, regs) => {
                let mut item = single(t, "register specialization of a group")?;
                if regs.len() != item.op.operand_spec().reg_fields.len() {
                    return Err("register specialization arity");
                }
                // Register and shamt fields are 5 bits wide; a tampered
                // model must not smuggle wider values past the
                // instruction generator.
                if regs.iter().any(|&r| r >= 32) {
                    return Err("register specialization value out of range");
                }
                item.fixed_regs = Some(regs.clone());
                vec![item]
            }
            Candidate::Imm(t, imm) => {
                let mut item = single(t, "immediate specialization of a group")?;
                item.fixed_imm = Some(*imm);
                vec![item]
            }
        };
        Ok(Template { items })
    }
}

/// A dictionary growth loop: appends learned entries to the templates,
/// rewrites the per-block token streams with them, and returns the build
/// rules in insertion order.
pub(crate) type Grow =
    fn(&mut Vec<Template>, &mut [Vec<usize>], &[&[Instruction]], &MipsSadcConfig) -> Vec<Candidate>;

/// One base template per operation: the dictionary before any growth.
pub(crate) fn base_templates() -> Vec<Template> {
    (0..Operation::COUNT as u8)
        .map(|id| Template { items: vec![TemplateItem::base(Operation::from_id(id))] })
        .collect()
}

/// The trained MIPS SADC codec.
#[derive(Debug, Clone)]
pub struct MipsSadc {
    config: MipsSadcConfig,
    templates: Vec<Template>,
    rules: Vec<Candidate>,
    op_book: CodeBook,
    reg_book: Option<CodeBook>,
    imm_book: Option<CodeBook>,
    limm_book: Option<CodeBook>,
}

impl MipsSadc {
    /// Builds the dictionary and Huffman tables for `text` (big-endian
    /// MIPS-I machine code).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Train`] for empty or undecodable text, a
    /// block size that is not a positive multiple of 4, or a token limit
    /// outside `(Operation::COUNT, 256]`.
    pub fn train(text: &[u8], config: MipsSadcConfig) -> Result<Self, CodecError> {
        Self::train_with(text, config, grow_dictionary)
    }

    /// [`Self::train`] with the dictionary growth loop supplied by `grow`.
    pub(crate) fn train_with(
        text: &[u8],
        config: MipsSadcConfig,
        grow: Grow,
    ) -> Result<Self, CodecError> {
        let _span = crate::obs::TRAIN_SPAN.time();
        if text.is_empty() {
            return Err(CodecError::train(NAME, "cannot train on an empty text section"));
        }
        if config.block_size == 0 || !config.block_size.is_multiple_of(4) {
            return Err(CodecError::train(
                NAME,
                format!("block size {} is not a positive multiple of 4", config.block_size),
            ));
        }
        if config.max_tokens <= Operation::COUNT || config.max_tokens > 256 {
            return Err(CodecError::train(
                NAME,
                format!("token limit {} outside (base count, 256]", config.max_tokens),
            ));
        }
        let instructions = decode_text(text).map_err(|e| CodecError::train(NAME, e))?;
        let insn_blocks: Vec<&[Instruction]> = instructions.chunks(config.block_size / 4).collect();

        // Start with one base template per operation.
        let mut templates = base_templates();
        let mut token_blocks: Vec<Vec<usize>> = insn_blocks
            .iter()
            .map(|block| block.iter().map(|i| usize::from(i.operation().id())).collect())
            .collect();

        // Iterative build: insert the best candidate, re-parse, repeat.
        let rules = grow(&mut templates, &mut token_blocks, &insn_blocks, &config);

        // Gather stream statistics for the Huffman pass.
        let mut op_freq = vec![0u64; templates.len()];
        let mut reg_freq = [0u64; 256];
        let mut imm_freq = [0u64; 256];
        let mut limm_freq = [0u64; 256];
        for (tokens, block) in token_blocks.iter().zip(&insn_blocks) {
            let mut cursor = 0usize;
            for &t in tokens {
                op_freq[t] += 1;
                for item in &templates[t].items {
                    let insn = block[cursor];
                    cursor += 1;
                    if item.stream_regs() > 0 {
                        for b in insn.register_fields() {
                            reg_freq[usize::from(b)] += 1;
                        }
                    }
                    if item.stream_imm16() {
                        for b in insn.imm16().expect("spec requires imm16").to_be_bytes() {
                            imm_freq[usize::from(b)] += 1;
                        }
                    }
                    if item.stream_imm26() {
                        for b in insn.imm26().expect("spec requires imm26").to_be_bytes() {
                            limm_freq[usize::from(b)] += 1;
                        }
                    }
                }
            }
        }
        let op_book = CodeBook::from_frequencies(&op_freq, 15).expect("programs are non-empty");
        let reg_book = CodeBook::from_frequencies(&reg_freq, 15).ok();
        let imm_book = CodeBook::from_frequencies(&imm_freq, 15).ok();
        let limm_book = CodeBook::from_frequencies(&limm_freq, 15).ok();

        Ok(Self { config, templates, rules, op_book, reg_book, imm_book, limm_book })
    }

    /// The dictionary (base operations first, learned entries after).
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// The configuration this codec was trained with.
    pub fn config(&self) -> &MipsSadcConfig {
        &self.config
    }

    /// The build rules, in insertion order (crate-internal, for the
    /// serializer).
    pub(crate) fn rules(&self) -> &[Candidate] {
        &self.rules
    }

    /// The Huffman books (crate-internal, for the serializer).
    pub(crate) fn books(
        &self,
    ) -> (&CodeBook, Option<&CodeBook>, Option<&CodeBook>, Option<&CodeBook>) {
        (&self.op_book, self.reg_book.as_ref(), self.imm_book.as_ref(), self.limm_book.as_ref())
    }

    /// Reconstructs the template table by replaying `rules` over the base
    /// operations (crate-internal, for the deserializer).
    pub(crate) fn templates_from_rules(rules: &[Candidate]) -> Result<Vec<Template>, &'static str> {
        let mut templates = base_templates();
        for rule in rules {
            let template = rule.template(&templates)?;
            templates.push(template);
        }
        Ok(templates)
    }

    /// Reassembles a codec from serialized parts (crate-internal).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        config: MipsSadcConfig,
        templates: Vec<Template>,
        rules: Vec<Candidate>,
        op_book: CodeBook,
        reg_book: Option<CodeBook>,
        imm_book: Option<CodeBook>,
        limm_book: Option<CodeBook>,
    ) -> Self {
        Self { config, templates, rules, op_book, reg_book, imm_book, limm_book }
    }

    /// Serialized dictionary size: learned entries only (base operations
    /// are ISA knowledge the decompressor already has).
    pub fn dict_bytes(&self) -> usize {
        self.templates[Operation::COUNT..].iter().map(Template::storage_bytes).sum()
    }

    /// Serialized Huffman table size (4-bit code lengths per symbol).
    pub fn table_bytes(&self) -> usize {
        let mut bits = self.templates.len() * 4;
        for book in [&self.reg_book, &self.imm_book, &self.limm_book].into_iter().flatten() {
            bits += book.lengths().len() * 4;
        }
        bits.div_ceil(8)
    }

    /// Compresses `text` (must be the training text or statistically
    /// identical — symbols absent at train time cannot be coded).
    ///
    /// Convenience wrapper over [`BlockCodec::compress`].
    ///
    /// # Panics
    ///
    /// Panics if `text` is not valid MIPS code or contains symbols that
    /// never occurred during training; use [`BlockCodec::compress`] to
    /// handle those cases.
    pub fn compress(&self, text: &[u8]) -> BlockImage {
        BlockCodec::compress(self, text).expect("compress requires decodable, trained text")
    }

    /// Parses one block by replaying the dictionary's build rules over the
    /// base-token stream — the same parse the dictionary was built with.
    fn parse_block(&self, block: &[Instruction]) -> Vec<usize> {
        let mut tokens: Vec<usize> =
            block.iter().map(|insn| usize::from(insn.operation().id())).collect();
        for (i, rule) in self.rules.iter().enumerate() {
            let new_id = Operation::COUNT + i;
            match rule {
                Candidate::Pair(a, b) => {
                    replace_in_slice(&mut tokens, &[*a, *b], new_id);
                }
                Candidate::Triple(a, b, c) => {
                    replace_in_slice(&mut tokens, &[*a, *b, *c], new_id);
                }
                Candidate::Regs(t, regs) => {
                    replace_matching_in_slice(
                        &self.templates,
                        &mut tokens,
                        block,
                        *t,
                        new_id,
                        |insn| insn.register_fields() == *regs,
                    );
                }
                Candidate::Imm(t, imm) => {
                    replace_matching_in_slice(
                        &self.templates,
                        &mut tokens,
                        block,
                        *t,
                        new_id,
                        |insn| insn.imm16() == Some(*imm),
                    );
                }
            }
        }
        tokens
    }

    fn compress_block(&self, block: &[Instruction]) -> Result<Vec<u8>, CodecError> {
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
        let _span = crate::obs::COMPRESS_SPAN.time();
        let tokens = self.parse_block(block);
        crate::obs::count_dict_tokens(&tokens, Operation::COUNT);
        let mut w = BitWriter::new();
        // Opcode stream.
        for &t in &tokens {
            encode(&mut w, &self.op_book, t as u16, "opcode")?;
        }
        // Register stream.
        let mut cursor = 0usize;
        let mut imm16s = Vec::new();
        let mut imm26s = Vec::new();
        for &t in &tokens {
            for item in &self.templates[t].items {
                let insn = block[cursor];
                cursor += 1;
                if item.stream_regs() > 0 {
                    let book = self.reg_book.as_ref().ok_or_else(|| untrained("register"))?;
                    for b in insn.register_fields() {
                        encode(&mut w, book, u16::from(b), "register")?;
                    }
                }
                if item.stream_imm16() {
                    imm16s.push(insn.imm16().expect("spec requires imm16"));
                }
                if item.stream_imm26() {
                    imm26s.push(insn.imm26().expect("spec requires imm26"));
                }
            }
        }
        // Immediate stream.
        if !imm16s.is_empty() {
            let book = self.imm_book.as_ref().ok_or_else(|| untrained("immediate"))?;
            for imm in imm16s {
                for b in imm.to_be_bytes() {
                    encode(&mut w, book, u16::from(b), "immediate")?;
                }
            }
        }
        // Long-immediate stream.
        if !imm26s.is_empty() {
            let book = self.limm_book.as_ref().ok_or_else(|| untrained("long-immediate"))?;
            for imm in imm26s {
                for b in imm.to_be_bytes() {
                    encode(&mut w, book, u16::from(b), "long-immediate")?;
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
        if !out_len.is_multiple_of(4) {
            return Err(corrupt_block());
        }
        let insn_count = out_len / 4;
        let mut r = BitReader::new(bytes);
        // Opcode stream: tokens until the block's instructions are covered.
        let mut items: Vec<&TemplateItem> = Vec::with_capacity(insn_count);
        while items.len() < insn_count {
            let t = usize::from(self.op_book.decode(&mut r).map_err(code_error)?);
            let template = self.templates.get(t).ok_or_else(corrupt_block)?;
            items.extend(template.items.iter());
        }
        if items.len() != insn_count {
            return Err(corrupt_block());
        }
        // Register stream.
        let mut regs_per_insn: Vec<Vec<u8>> = Vec::with_capacity(insn_count);
        for item in &items {
            if let Some(fixed) = &item.fixed_regs {
                regs_per_insn.push(fixed.clone());
            } else {
                let need = item.op.operand_spec().reg_fields.len();
                let mut regs = Vec::with_capacity(need);
                for _ in 0..need {
                    let book = self.reg_book.as_ref().ok_or_else(corrupt_block)?;
                    let value = book.decode(&mut r).map_err(code_error)? as u8;
                    // Register and shamt fields are 5 bits wide; anything
                    // larger marks a corrupt stream, not a codec panic.
                    if value >= 32 {
                        return Err(corrupt_block());
                    }
                    regs.push(value);
                }
                regs_per_insn.push(regs);
            }
        }
        // Immediate stream.
        let mut imm16_per_insn: Vec<Option<u16>> = Vec::with_capacity(insn_count);
        for item in &items {
            imm16_per_insn.push(match item.op.operand_spec().imm {
                ImmKind::Imm16 => Some(match item.fixed_imm {
                    Some(imm) => imm,
                    None => {
                        let book = self.imm_book.as_ref().ok_or_else(corrupt_block)?;
                        let hi = book.decode(&mut r).map_err(code_error)? as u8;
                        let lo = book.decode(&mut r).map_err(code_error)? as u8;
                        u16::from_be_bytes([hi, lo])
                    }
                }),
                _ => None,
            });
        }
        // Long-immediate stream.
        let mut imm26_per_insn: Vec<Option<u32>> = Vec::with_capacity(insn_count);
        for item in &items {
            imm26_per_insn.push(if item.stream_imm26() {
                let book = self.limm_book.as_ref().ok_or_else(corrupt_block)?;
                let mut v = [0u8; 4];
                for b in v.iter_mut() {
                    *b = book.decode(&mut r).map_err(code_error)? as u8;
                }
                let target = u32::from_be_bytes(v);
                if target >= 1 << 26 {
                    return Err(corrupt_block());
                }
                Some(target)
            } else {
                None
            });
        }
        // Instruction generator: reassemble the machine words.
        let mut out = Vec::with_capacity(out_len);
        for (i, item) in items.iter().enumerate() {
            let insn = Instruction::assemble(
                item.op,
                &regs_per_insn[i],
                imm16_per_insn[i],
                imm26_per_insn[i],
            );
            out.extend_from_slice(&insn.encode().to_be_bytes());
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

impl BlockCodec for MipsSadc {
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

    fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, CodecError> {
        let instructions = decode_text(chunk).map_err(|e| CodecError::train(NAME, e))?;
        // The operand streams carry only the fields in each operation's
        // spec, so a word with stray bits in an unused field would
        // reassemble to a *different* word; refuse such non-canonical
        // encodings instead of silently miscompressing them.
        for insn in &instructions {
            let rebuilt = Instruction::assemble(
                insn.operation(),
                &insn.register_fields(),
                insn.imm16(),
                insn.imm26(),
            );
            if rebuilt != *insn {
                return Err(CodecError::train(NAME, "non-canonical instruction encoding"));
            }
        }
        self.compress_block(&instructions)
    }

    fn decompress_block(&self, block: &[u8], out_len: usize) -> Result<Vec<u8>, CodecError> {
        Self::decompress_block(self, block, out_len)
    }
}

/// Replaces occurrences of single-token `old` whose covered instruction
/// satisfies `predicate` with `new`.
pub(crate) fn replace_matching_in_slice(
    templates: &[Template],
    tokens: &mut [usize],
    block: &[Instruction],
    old: usize,
    new: usize,
    predicate: impl Fn(&Instruction) -> bool,
) {
    let mut cursor = 0usize;
    for t in tokens.iter_mut() {
        let len = templates[*t].items.len();
        if *t == old && predicate(&block[cursor]) {
            *t = new;
        }
        cursor += len;
    }
}

/// Register-specialization candidates: payload = the register fields,
/// five bits each, first field most significant.
const REGS: u32 = 2;
/// Immediate-specialization candidates: payload = the 16-bit immediate.
const IMM: u32 = 3;

/// The incremental growth loop ([`crate::tokens::grow`]) over MIPS
/// templates; a [`Grow`].
fn grow_dictionary(
    templates: &mut Vec<Template>,
    token_blocks: &mut [Vec<usize>],
    insn_blocks: &[&[Instruction]],
    config: &MipsSadcConfig,
) -> Vec<Candidate> {
    let instructions = insn_blocks.iter().flat_map(|block| block.iter());
    let mut alphabet = MipsAlphabet {
        facts: templates.iter().map(TokenFacts::of).collect(),
        templates,
        regs: instructions
            .clone()
            .map(|insn| insn.register_fields().iter().fold(0, |acc, &r| acc << 5 | u32::from(r)))
            .collect(),
        imms: instructions.map(|insn| insn.imm16().unwrap_or(0)).collect(),
        insns_per_block: config.block_size / 4,
        config: *config,
    };
    let first = alphabet.templates.len();
    tokens::grow(&mut alphabet, token_blocks, config.groups, first, config.max_tokens)
        .into_iter()
        .map(|key| alphabet.candidate(key))
        .collect()
}

/// Per-token facts the growth loop reads on every block it recounts.
#[derive(Debug, Clone, Copy)]
struct TokenFacts {
    /// Instructions the template covers.
    len: usize,
    /// [`Template::storage_bytes`].
    storage: i64,
    /// Register fields a register specialization would fix (zero when the
    /// token cannot be register-specialized).
    spec_regs: usize,
    /// Whether the token can be immediate-specialized.
    spec_imm: bool,
}

impl TokenFacts {
    fn of(template: &Template) -> Self {
        let single = match template.items.as_slice() {
            [item] => Some(item),
            _ => None,
        };
        Self {
            len: template.len(),
            storage: template.storage_bytes() as i64,
            spec_regs: single
                .filter(|item| item.fixed_regs.is_none())
                .map_or(0, |item| item.op.operand_spec().reg_fields.len()),
            spec_imm: single.is_some_and(TemplateItem::stream_imm16),
        }
    }
}

/// MIPS candidates for the growth loop: groups plus register and
/// immediate specializations of single-instruction tokens.
struct MipsAlphabet<'a> {
    templates: &'a mut Vec<Template>,
    facts: Vec<TokenFacts>,
    /// Packed register fields of every instruction, in text order.
    regs: Vec<u32>,
    /// 16-bit immediate of every instruction (zero when it has none).
    imms: Vec<u16>,
    /// Block `b` starts at instruction `b * insns_per_block`.
    insns_per_block: usize,
    config: MipsSadcConfig,
}

impl MipsAlphabet<'_> {
    /// The rule `key` stands for.
    fn candidate(&self, key: Key) -> Candidate {
        match (tokens::group(key), tokens::class(key)) {
            (Some(g), _) if g.len() == 2 => Candidate::Pair(g[0], g[1]),
            (Some(g), _) => Candidate::Triple(g[0], g[1], g[2]),
            (None, REGS) => {
                let t = tokens::special_token(key);
                let n = self.facts[t].spec_regs;
                let packed = tokens::special_payload(key);
                let regs = (0..n).rev().map(|i| (packed >> (5 * i) & 31) as u8).collect();
                Candidate::Regs(t, regs)
            }
            (None, _) => {
                Candidate::Imm(tokens::special_token(key), tokens::special_payload(key) as u16)
            }
        }
    }
}

impl Alphabet for MipsAlphabet<'_> {
    fn gain(&self, key: Key, count: u32) -> i64 {
        let f = i64::from(count);
        let storage = |t: usize| self.facts[t].storage;
        match tokens::group(key) {
            Some(g) if g.len() == 2 => f - (storage(g[0]) + storage(g[1]) - 1),
            Some(g) => 2 * f - (storage(g[0]) + storage(g[1]) + storage(g[2]) - 2),
            None => {
                let t = tokens::special_token(key);
                if tokens::class(key) == REGS {
                    let n = self.facts[t].spec_regs as i64;
                    f * n - (storage(t) + n)
                } else {
                    2 * f - (storage(t) + 2)
                }
            }
        }
    }

    fn specializations(
        &self,
        block: usize,
        stream: &[usize],
        span: Range<usize>,
        out: &mut Vec<Key>,
    ) {
        let mut cursor = block * self.insns_per_block;
        for (i, &t) in stream.iter().enumerate().take(span.end) {
            let facts = self.facts[t];
            if facts.len == 1 && i >= span.start {
                if self.config.reg_specialization && facts.spec_regs > 0 {
                    out.push(tokens::special_key(REGS, t, self.regs[cursor]));
                }
                if self.config.imm_specialization && facts.spec_imm {
                    out.push(tokens::special_key(IMM, t, u32::from(self.imms[cursor])));
                }
            }
            cursor += facts.len;
        }
    }

    fn specialize(&self, key: Key, block: usize, stream: &mut [usize], new: usize) -> bool {
        let (old, payload) = (tokens::special_token(key), tokens::special_payload(key));
        let operand = |i: usize| {
            if tokens::class(key) == REGS {
                self.regs[i]
            } else {
                u32::from(self.imms[i])
            }
        };
        let mut cursor = block * self.insns_per_block;
        let mut changed = false;
        for t in stream.iter_mut() {
            let len = self.facts[*t].len;
            if *t == old && operand(cursor) == payload {
                *t = new;
                changed = true;
            }
            cursor += len;
        }
        changed
    }

    fn insert(&mut self, key: Key) {
        let template =
            self.candidate(key).template(self.templates).expect("winners are valid rules");
        self.facts.push(TokenFacts::of(&template));
        self.templates.push(template);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_isa::mips::{encode_text, Reg};

    fn idiomatic_program(reps: usize) -> Vec<u8> {
        let mut insns = Vec::new();
        for i in 0..reps {
            // A repeated prologue/body/epilogue idiom.
            insns.push(Instruction::addiu(Reg::SP, Reg::SP, 0xFFF8));
            insns.push(Instruction::sw(Reg::RA, 4, Reg::SP));
            insns.push(Instruction::lw(Reg::T0, (i % 8 * 4) as u16, Reg::SP));
            insns.push(Instruction::addu(Reg::V0, Reg::V0, Reg::T0));
            insns.push(Instruction::lw(Reg::RA, 4, Reg::SP));
            insns.push(Instruction::addiu(Reg::SP, Reg::SP, 8));
            insns.push(Instruction::jr(Reg::RA));
            insns.push(Instruction::nop());
        }
        encode_text(&insns)
    }

    #[test]
    fn round_trips_and_compresses_idiomatic_code() {
        let text = idiomatic_program(512);
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let image = codec.compress(&text);
        assert_eq!(codec.decompress(&image).unwrap(), text);
        assert!(image.ratio() < 0.5, "ratio {}", image.ratio());
    }

    #[test]
    fn dictionary_learns_groups() {
        let text = idiomatic_program(256);
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        assert!(
            codec.templates().iter().any(|t| t.items.len() >= 2),
            "expected at least one group entry"
        );
        assert!(codec.templates().len() <= 256);
    }

    #[test]
    fn jr_ra_specialization_is_learned() {
        // `jr $31` dominates; a register specialization should appear.
        let text = idiomatic_program(256);
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let has_fixed_reg =
            codec.templates().iter().any(|t| t.items.iter().any(|item| item.fixed_regs.is_some()));
        assert!(has_fixed_reg, "expected a register-specialized entry");
    }

    #[test]
    fn blocks_decode_independently() {
        let text = idiomatic_program(64);
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let image = codec.compress(&text);
        for i in (0..image.block_count()).rev() {
            let start = i * 32;
            let len = image.block_uncompressed_len(i);
            assert_eq!(
                codec.decompress_block(image.block(i), len).unwrap(),
                &text[start..start + len],
                "block {i}"
            );
        }
    }

    #[test]
    fn candidate_classes_can_be_disabled() {
        let text = idiomatic_program(128);
        let only_groups = MipsSadcConfig {
            reg_specialization: false,
            imm_specialization: false,
            ..Default::default()
        };
        let codec = MipsSadc::train(&text, only_groups).unwrap();
        assert!(codec
            .templates()
            .iter()
            .all(|t| t.items.iter().all(|i| i.fixed_regs.is_none() && i.fixed_imm.is_none())));
        let image = codec.compress(&text);
        assert_eq!(codec.decompress(&image).unwrap(), text);

        let no_dict = MipsSadcConfig {
            groups: false,
            reg_specialization: false,
            imm_specialization: false,
            ..Default::default()
        };
        let plain = MipsSadc::train(&text, no_dict).unwrap();
        assert_eq!(plain.templates().len(), Operation::COUNT);
        let plain_image = plain.compress(&text);
        assert_eq!(plain.decompress(&plain_image).unwrap(), text);
        assert!(image.ratio() <= plain_image.ratio() * 1.001, "dictionary should help");
    }

    #[test]
    fn train_validates_input() {
        let is_train_error = |result: Result<MipsSadc, CodecError>| {
            matches!(result.unwrap_err(), CodecError::Train { codec: "SADC", .. })
        };
        assert!(is_train_error(MipsSadc::train(&[], MipsSadcConfig::default())));
        assert!(is_train_error(MipsSadc::train(&[0xFF; 4], MipsSadcConfig::default())));
        let bad_block = MipsSadcConfig { block_size: 10, ..Default::default() };
        assert!(is_train_error(MipsSadc::train(&idiomatic_program(4), bad_block)));
        let bad_limit = MipsSadcConfig { max_tokens: 10, ..Default::default() };
        assert!(is_train_error(MipsSadc::train(&idiomatic_program(4), bad_limit)));
    }

    #[test]
    fn short_final_block_round_trips() {
        let mut text = idiomatic_program(4);
        text.extend_from_slice(&Instruction::nop().encode().to_be_bytes());
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let image = codec.compress(&text);
        assert_eq!(codec.decompress(&image).unwrap(), text);
    }

    #[test]
    fn accounting_includes_dict_and_tables() {
        let text = idiomatic_program(128);
        let codec = MipsSadc::train(&text, MipsSadcConfig::default()).unwrap();
        let image = codec.compress(&text);
        let blocks: usize = (0..image.block_count()).map(|i| image.block(i).len()).sum();
        assert_eq!(image.compressed_len(), blocks + codec.dict_bytes() + codec.table_bytes());
        assert!(codec.dict_bytes() > 0);
    }

    #[test]
    fn smaller_dictionaries_also_work() {
        let text = idiomatic_program(128);
        for max_tokens in [Operation::COUNT + 8, 96, 128] {
            let config = MipsSadcConfig { max_tokens, ..Default::default() };
            let codec = MipsSadc::train(&text, config).unwrap();
            let image = codec.compress(&text);
            assert_eq!(codec.decompress(&image).unwrap(), text, "max_tokens {max_tokens}");
        }
    }
}
