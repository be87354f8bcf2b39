//! Bounded-memory ELF → `.cce` compression: the bridge between the
//! streaming ELF walker ([`cce_elf::ElfStream`]), the ordered block
//! pipeline ([`cce_codec::run_pipeline`]), and the incremental v2
//! container writer ([`ContainerWriter`]).
//!
//! The compression pass never holds the text section in memory: blocks
//! flow from the section extent through a reusable read buffer
//! ([`cce_codec::ReadSource`]), fan out across the worker pool (each
//! worker round-trip-verifies its own block), and land in the container
//! in index order as the pipeline drains.  Peak memory is the pipeline's
//! bounded reorder window plus 16 index bytes per block.
//!
//! The one deliberate concession is **training**: every model builder in
//! the workspace (SAMC arithmetic models, SADC dictionaries, Huffman
//! code books) derives statistics from the whole text, so
//! [`buffered_text`] reads the section once into memory for the training
//! pass.  The buffer is dropped before compression begins; the
//! compression pass re-reads the section from the stream.

use std::io::{Read, Seek, Write};

use crate::container::{ContainerIdentity, ContainerSummary, ContainerWriter};
use crate::registry::Algorithm;
use crate::Measurement;
use cce_codec::pipeline::{BlockSink, CompressedBlock};
use cce_codec::{
    lat_bytes_for, run_pipeline, BlockCodec, CodecError, PipelineConfig, PipelineStats, ReadSource,
};
use cce_elf::{ElfStream, Machine, SectionKind, StreamElfError};
use cce_isa::Isa;

/// Name used in errors raised by the streaming bridge itself.
const SELF: &str = "elf stream";

/// Maps a streaming-walker failure into the workspace error type.
pub fn stream_error(e: StreamElfError) -> CodecError {
    CodecError::corrupt(SELF, e.to_string())
}

/// The instruction set implied by the ELF machine field.
///
/// # Errors
///
/// [`CodecError::Unsupported`] for machines no registered codec targets.
pub fn isa_of<R: Read + Seek>(elf: &ElfStream<R>) -> Result<Isa, CodecError> {
    match elf.machine() {
        Machine::Mips => Ok(Isa::Mips),
        Machine::I386 => Ok(Isa::X86),
        Machine::Other(m) => {
            Err(CodecError::unsupported(SELF, format!("unsupported ELF machine {m:#06x}")))
        }
    }
}

/// The container identity for compressing `elf` with `algorithm`.
///
/// # Errors
///
/// As [`isa_of`].
pub fn identity_of<R: Read + Seek>(
    elf: &ElfStream<R>,
    algorithm: Algorithm,
) -> Result<ContainerIdentity, CodecError> {
    Ok(ContainerIdentity {
        algorithm,
        isa: isa_of(elf)?,
        class: elf.class(),
        endianness: elf.endianness(),
        entry: elf.entry(),
    })
}

/// Index of the `.text` section.
///
/// # Errors
///
/// [`CodecError::Corrupt`] when the ELF has no `.text` section.
pub fn text_index<R: Read + Seek>(elf: &ElfStream<R>) -> Result<usize, CodecError> {
    elf.text_index().ok_or_else(|| CodecError::corrupt(SELF, "elf has no .text section"))
}

/// Reads the whole `.text` section into memory — the **training pass**.
///
/// Model builders need full-text statistics, so this is the one place
/// the streaming path buffers the section; drop the returned buffer
/// before streaming the compression pass.
///
/// # Errors
///
/// [`CodecError::Corrupt`] on a missing `.text` section or read failure.
pub fn buffered_text<R: Read + Seek>(elf: &mut ElfStream<R>) -> Result<Vec<u8>, CodecError> {
    let index = text_index(elf)?;
    let mut reader = elf.section_reader(index).map_err(stream_error)?;
    let mut text = Vec::new();
    reader
        .read_to_end(&mut text)
        .map_err(|e| CodecError::corrupt(SELF, format!("reading .text: {e}")))?;
    Ok(text)
}

/// One section's identity and size, for the per-section reports the
/// `--elf` CLI paths print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionStat {
    /// Section name (e.g. `.text`).
    pub name: String,
    /// Section size in bytes (`sh_size`).
    pub size: u64,
    /// Load address.
    pub addr: u64,
    /// Whether the section occupies file bytes (`false` for `.bss`).
    pub in_file: bool,
    /// Whether this is the compressed (`.text`) section.
    pub is_text: bool,
}

/// Per-section statistics of `elf`, in section-header order.
pub fn section_stats<R: Read + Seek>(elf: &ElfStream<R>) -> Vec<SectionStat> {
    let text = elf.text_index();
    elf.sections()
        .iter()
        .enumerate()
        .map(|(index, section)| SectionStat {
            name: section.name.clone(),
            size: section.size,
            addr: section.addr,
            in_file: section.kind != SectionKind::NoBits,
            is_text: Some(index) == text,
        })
        .collect()
}

/// What one streaming compression produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamReport {
    /// Pipeline throughput counters (blocks, bytes, peak queue depth).
    pub stats: PipelineStats,
    /// Finished-container size accounting.
    pub summary: ContainerSummary,
}

/// Streams `elf`'s `.text` section through the block pipeline into a v2
/// container on `out` — the **compression pass**.
///
/// `codec` must already be trained (see [`buffered_text`]; the CLI may
/// instead hit its model cache).  Every worker round-trip-verifies the
/// block it compressed, replacing the whole-image verify of the buffered
/// path, so a lying codec fails here rather than producing a bad
/// artifact.
///
/// # Errors
///
/// Propagates walker, codec, verification, and output-write failures;
/// the artifact is incomplete on error (callers write to a temp path and
/// rename on success).
pub fn compress_elf<R: Read + Seek, W: Write>(
    elf: &mut ElfStream<R>,
    algorithm: Algorithm,
    codec: &dyn BlockCodec,
    out: W,
    workers: usize,
) -> Result<StreamReport, CodecError> {
    let identity = identity_of(elf, algorithm)?;
    let index = text_index(elf)?;
    let mut writer = ContainerWriter::new(
        out,
        identity,
        codec.block_size(),
        codec.model_bytes(),
        &codec.to_bytes(),
    )?;
    let reader = elf.section_reader(index).map_err(stream_error)?;
    let mut source = ReadSource::new(reader, codec.chunker());
    let config = PipelineConfig::with_workers(workers).verified();
    let stats = run_pipeline(codec, &mut source, &mut writer, &config)?;
    let summary = writer.finish()?;
    Ok(StreamReport { stats, summary })
}

/// A [`BlockSink`] that keeps only per-block sizes — the landing pad for
/// ratio measurement, where no artifact is wanted.
struct MeasureSink {
    sizes: Vec<usize>,
}

impl BlockSink for MeasureSink {
    fn accept(&mut self, block: CompressedBlock) -> Result<(), CodecError> {
        self.sizes.push(block.data.len());
        Ok(())
    }
}

/// Measures one algorithm over `elf`'s `.text` section.
///
/// Block algorithms stream the compression pass (training buffers the
/// text once, as everywhere); the compressed bytes are counted, not
/// kept, and every block is round-trip-verified in its worker.  File
/// baselines have no streaming decoder, so they are measured on the
/// buffered text — a measurement-only concession.
///
/// The result uses the same accounting as the buffered
/// [`measure`](crate::measure) path, so streamed and in-memory ratios
/// are directly comparable (pinned against each other in
/// `tests/streaming.rs`).
///
/// # Errors
///
/// As [`measure`](crate::measure), plus walker failures.
pub fn measure_elf<R: Read + Seek>(
    elf: &mut ElfStream<R>,
    algorithm: Algorithm,
    block_size: usize,
    workers: usize,
) -> Result<Measurement, CodecError> {
    let isa = isa_of(elf)?;
    let text = buffered_text(elf)?;
    if !algorithm.random_access() {
        // File codecs decode front to back only; buffered measurement is
        // the honest description of how they would run.
        return crate::measure_with_workers(algorithm, isa, &text, block_size, workers);
    }
    let handle = algorithm.build(isa, block_size).train(&text)?;
    let codec = handle.as_block().ok_or_else(|| {
        CodecError::corrupt(SELF, "registry built a non-block codec for a random-access tag")
    })?;
    let original_len = text.len();
    drop(text);

    let index = text_index(elf)?;
    let reader = elf.section_reader(index).map_err(stream_error)?;
    let mut source = ReadSource::new(reader, codec.chunker());
    let mut sink = MeasureSink { sizes: Vec::new() };
    let config = PipelineConfig::with_workers(workers).verified();
    run_pipeline(codec, &mut source, &mut sink, &config)?;

    let data_len: usize = sink.sizes.iter().sum();
    Ok(Measurement {
        algorithm,
        isa,
        original_len,
        compressed_len: data_len + codec.model_bytes(),
        lat_bytes: Some(lat_bytes_for(sink.sizes.len(), data_len)),
        block_sizes: Some(sink.sizes),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_elf::{Class, ElfImage, Endianness};
    use cce_workload::{generate_mips, Spec95};
    use std::io::Cursor;

    fn sample_elf() -> Vec<u8> {
        let profile = Spec95::by_name("ijpeg").unwrap();
        let text = cce_isa::mips::encode_text(&generate_mips(profile, 0.05));
        ElfImage::new_executable(cce_elf::Machine::Mips, Class::Elf32, Endianness::Big, text)
            .to_bytes()
    }

    #[test]
    fn identity_reflects_the_elf() {
        let bytes = sample_elf();
        let elf = ElfStream::open(Cursor::new(&bytes)).unwrap();
        let identity = identity_of(&elf, Algorithm::Samc).unwrap();
        assert_eq!(identity.isa, Isa::Mips);
        assert_eq!(identity.class, Class::Elf32);
        assert_eq!(identity.endianness, Endianness::Big);
        assert_eq!(identity.entry, elf.entry());
    }

    #[test]
    fn section_stats_flag_the_text_section() {
        let bytes = sample_elf();
        let elf = ElfStream::open(Cursor::new(&bytes)).unwrap();
        let stats = section_stats(&elf);
        let text: Vec<_> = stats.iter().filter(|s| s.is_text).collect();
        assert_eq!(text.len(), 1);
        assert_eq!(text[0].name, ".text");
        assert!(text[0].size > 0 && text[0].in_file);
    }

    #[test]
    fn streamed_measurement_matches_buffered() {
        let bytes = sample_elf();
        let mut elf = ElfStream::open(Cursor::new(&bytes)).unwrap();
        let text = buffered_text(&mut elf).unwrap();
        for algorithm in Algorithm::ALL {
            let streamed = measure_elf(&mut elf, algorithm, 32, 2)
                .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
            let buffered = crate::measure_with_workers(algorithm, Isa::Mips, &text, 32, 2).unwrap();
            assert_eq!(streamed, buffered, "{algorithm}");
        }
    }

    #[test]
    fn unsupported_machine_is_a_typed_error() {
        let profile = Spec95::by_name("ijpeg").unwrap();
        let text = cce_isa::mips::encode_text(&generate_mips(profile, 0.02));
        let bytes = ElfImage::new_executable(
            cce_elf::Machine::Other(0x1234),
            Class::Elf32,
            Endianness::Big,
            text,
        )
        .to_bytes();
        let elf = ElfStream::open(Cursor::new(&bytes)).unwrap();
        assert!(matches!(isa_of(&elf), Err(CodecError::Unsupported { .. })));
    }
}
