//! Per-layer probes: each times one public call of a layer from outside
//! it, on the workload's own inputs, and checks the call's output.

use crate::workload::{Input, BLOCK_SIZE};
use cce_core::bitstream::{BitReader, BitWriter};
use cce_core::codec::CodecError;
use cce_core::elf::ElfStream;
use cce_core::obs::SampleValue;
use cce_core::streaming::{compress_elf, stream_error};
use cce_core::{Algorithm, CodecHandle};
use std::error::Error;
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// Single-thread kernel figures of one codec.
pub struct CodecProbe {
    /// The codec trained on each input, in input order.
    pub handles: Vec<CodecHandle>,
    /// Training time per input, in input order.
    pub train_s: Vec<f64>,
    /// `BlockCodec::compress` throughput over all inputs.
    pub encode_mb_s: f64,
    /// `BlockCodec::decompress` throughput over all inputs.
    pub decode_mb_s: f64,
    /// Range-coder bits decoded per second during decompress (the
    /// `arith.decode.bits` counter; zero for codecs without a range
    /// coder or with observability compiled out).
    pub arith_decode_mbit_s: f64,
    /// Share of SADC tokens that hit a learned dictionary entry (the
    /// `sadc.dict.{hits,misses}` counters; zero for other codecs).
    pub dict_hit_ratio: f64,
}

/// Trains `algorithm` on each input and times single-thread block
/// compression and decompression of its whole text.
pub fn codec(algorithm: Algorithm, inputs: &[&Input]) -> Result<CodecProbe, Box<dyn Error>> {
    let mut handles = Vec::new();
    let mut train_s = Vec::new();
    let (mut bytes, mut encode_s, mut decode_s) = (0usize, 0.0, 0.0);
    cce_core::obs::reset();
    for input in inputs {
        let start = Instant::now();
        let handle = algorithm.build(input.isa, BLOCK_SIZE).train(&input.text)?;
        train_s.push(start.elapsed().as_secs_f64());
        let codec = handle.as_block().ok_or("the codec is not random-access")?;
        let start = Instant::now();
        let image = codec.compress(black_box(&input.text))?;
        encode_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let decoded = codec.decompress(black_box(&image))?;
        decode_s += start.elapsed().as_secs_f64();
        if decoded != input.text {
            return Err(format!("{algorithm}: decompress differs from the text").into());
        }
        bytes += input.text.len();
        handles.push(handle);
    }
    let arith_bits = counter("arith.decode.bits");
    let (hits, misses) = (counter("sadc.dict.hits"), counter("sadc.dict.misses"));
    let mib = bytes as f64 / MIB;
    Ok(CodecProbe {
        handles,
        train_s,
        encode_mb_s: mib / encode_s,
        decode_mb_s: mib / decode_s,
        arith_decode_mbit_s: arith_bits as f64 / decode_s / 1e6,
        dict_hit_ratio: if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 },
    })
}

/// Current value of the workspace counter `name` (zero if absent).
pub fn counter(name: &str) -> u64 {
    cce_core::obs::snapshot().samples.iter().find(|s| s.name == name).map_or(0, |s| match s.value {
        SampleValue::Counter(v) | SampleValue::Gauge(v) => v,
        _ => 0,
    })
}

/// Mean of the workspace histogram `name` (zero if empty or absent).
pub fn histogram_mean(name: &str) -> f64 {
    cce_core::obs::snapshot().samples.iter().find(|s| s.name == name).map_or(0.0, |s| {
        match s.value {
            SampleValue::Histogram { count, sum, .. } if count > 0 => sum as f64 / count as f64,
            _ => 0.0,
        }
    })
}

/// Minimum bytes of text each bit-I/O timing covers; short texts are
/// repeated so the timing is not a handful of microseconds.
const BITSTREAM_MIN_BYTES: usize = 8 << 20;

/// Reads every text as consecutive 1..=16-bit fields with
/// `BitReader::read_bits`, writes the fields back with
/// `BitWriter::write_bits`, and checks the written bytes equal the text.
/// Returns (write MiB/s, read MiB/s).
pub fn bitstream(inputs: &[&Input]) -> Result<(f64, f64), Box<dyn Error>> {
    let total: usize = inputs.iter().map(|i| i.text.len()).sum();
    let rounds = BITSTREAM_MIN_BYTES.div_ceil(total.max(1));
    let (mut read_s, mut write_s) = (0.0, 0.0);
    let mut fields: Vec<(u32, u32)> = Vec::new();
    for _ in 0..rounds {
        for input in inputs {
            let text = &input.text;
            fields.clear();
            let start = Instant::now();
            let mut reader = BitReader::new(black_box(text));
            let mut width = 0;
            while reader.remaining_bits() > 0 {
                width = width % 16 + 1;
                let w = width.min(reader.remaining_bits() as u32);
                fields.push((reader.read_bits(w)?, w));
            }
            read_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let mut writer = BitWriter::with_capacity(text.len());
            for &(value, w) in &fields {
                writer.write_bits(value, w);
            }
            let written = writer.into_bytes();
            write_s += start.elapsed().as_secs_f64();
            if &written != text {
                return Err("bit fields written back differ from the text".into());
            }
        }
    }
    let mib = (rounds * total) as f64 / MIB;
    Ok((mib / write_s, mib / read_s))
}

/// What [`pipeline`] streamed: the seconds it took and the containers.
pub struct Streamed {
    /// Compression time over all inputs.
    pub secs: f64,
    /// One container per input.
    pub containers: Vec<Vec<u8>>,
}

/// Streams every input through its already trained codec in `handles`
/// with `workers` pipeline workers.
pub fn pipeline(
    algorithm: Algorithm,
    inputs: &[&Input],
    handles: &[CodecHandle],
    workers: usize,
) -> Result<Streamed, Box<dyn Error>> {
    let mut streamed = Streamed { secs: 0.0, containers: Vec::new() };
    for (input, handle) in inputs.iter().zip(handles) {
        let codec = handle.as_block().ok_or("the workload codec is not random-access")?;
        let mut elf = ElfStream::open(Cursor::new(&input.elf[..])).map_err(stream_error)?;
        let mut container = Vec::new();
        let start = Instant::now();
        compress_elf(&mut elf, algorithm, codec, &mut container, workers)?;
        streamed.secs += start.elapsed().as_secs_f64();
        streamed.containers.push(container);
    }
    Ok(streamed)
}

/// Direct `Artifact::read_block` latencies (sorted, nanoseconds) and
/// per-block decode latencies (sorted, nanoseconds) for `requests` from
/// the artifact published at `dir`.
pub fn serve_reads(dir: &Path, requests: &[u64]) -> Result<(Vec<u64>, Vec<u64>), Box<dyn Error>> {
    let (artifact, codec) = cce_core::artifact::open_with_codec(dir)?;
    let mut reads = Vec::with_capacity(requests.len());
    let mut decodes = Vec::with_capacity(requests.len());
    for &block in requests {
        let block = usize::try_from(block)?;
        let start = Instant::now();
        let (data, len) = artifact.read_block(block)?;
        let read = Instant::now();
        let decoded = codec.decompress_block(black_box(&data), len)?;
        let done = Instant::now();
        if decoded.len() != len {
            return Err(CodecError::corrupt("perfbench", format!("block {block} length")).into());
        }
        reads.push(read.duration_since(start).as_nanos() as u64);
        decodes.push(done.duration_since(read).as_nanos() as u64);
    }
    reads.sort_unstable();
    decodes.sort_unstable();
    Ok((reads, decodes))
}
