//! One pass of the end-to-end chain over a workload's programs:
//! generate → ELF → train → streamed compress into a v2 container →
//! decode → publish → serve/fetch → memory-system simulation.
//!
//! Every step is a call into the program's public API, wrapped in a
//! span.  Every output is checked: the decoded container against the
//! text, each fetched block against its slice of the text, and repeated
//! simulations against each other.

use crate::fetch::{closed_loop, BlockMap, FetchOutcome};
use crate::tracer::Tracer;
use crate::workload::{block_requests, generate, Input, Workload, BLOCK_SIZE};
use cce_core::artifact::{open_with_codec, publish_container};
use cce_core::codec::{BlockCodec, CodecError, PipelineStats};
use cce_core::container::{ContainerSummary, ContainerV2Reader};
use cce_core::elf::ElfStream;
use cce_core::memsim::{CacheConfig, CostModel, LineAddressTable, MemorySystem, SimReport};
use cce_core::serve::{ServeConfig, Server, DEFAULT_CHUNK_PAYLOAD};
use cce_core::streaming::{buffered_text, compress_elf, stream_error};
use cce_core::Algorithm;
use std::error::Error;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The simulated memory system: the 4 KiB two-way I-cache and 32-entry
/// CLB of the repository's memsim leg, with the paper's nibble-serial
/// refill engine (2 cycles per output byte).  Every codec is charged
/// that engine: it is SAMC's, and an upper bound for the table-driven
/// Huffman and dictionary SADC decoders.
const CACHE: CacheConfig =
    CacheConfig { size_bytes: 4096, block_size: BLOCK_SIZE, associativity: 2 };
const CLB_ENTRIES: usize = 32;

/// Simulated fetches per program per pass: the trace is replayed until
/// at least this many, so the host-throughput figure times ~0.1 s.
const SIM_FETCHES: usize = 16_000_000;

/// A short stage repeats until it has run this long in total, so the
/// run has many samples of it; every figure is a median over samples,
/// and one disturbed repetition (the host is shared) moves nothing.
const STAGE_BUDGET_S: f64 = 0.3;
const MAX_REPEATS: usize = 16;

/// Runs `f` in a span called `name` until [`STAGE_BUDGET_S`] is spent
/// (at least once, at most [`MAX_REPEATS`] times); returns the last
/// result and every duration.  Stops at the first error.
fn repeat<T, E>(
    t: &mut Tracer,
    name: &'static str,
    mut f: impl FnMut(&mut Tracer) -> Result<T, E>,
) -> Result<(T, Vec<f64>), E> {
    let mut times = Vec::new();
    loop {
        let (value, secs) = t.span(name, &mut f);
        let value = value?;
        times.push(secs);
        if times.len() >= MAX_REPEATS || times.iter().sum::<f64>() >= STAGE_BUDGET_S {
            return Ok((value, times));
        }
    }
}

/// Settings shared by every pass of a run.
pub struct Env {
    /// Pipeline workers and server shards.
    pub workers: usize,
    /// Closed-loop fetch clients.
    pub clients: usize,
    /// Multiple of every workload size (1 in measured runs; the
    /// self-tests shrink it).
    pub scale: f64,
    /// Workload seed.
    pub seed: u64,
    /// Scratch directory for published artifacts.
    pub work_dir: PathBuf,
}

/// What the chain measured on one program.
pub struct ProgramPass {
    /// The generated input.
    pub input: Input,
    /// `ElfStream` open plus reading `.text`.
    pub elf_read_s: f64,
    /// Codec training, each repetition.
    pub train_s: Vec<f64>,
    /// Streamed compression into the container, each repetition.
    pub compress_s: Vec<f64>,
    /// Pipeline counters of the compression.
    pub pipeline: PipelineStats,
    /// Container size accounting.
    pub summary: ContainerSummary,
    /// The container bytes.
    pub container: Vec<u8>,
    /// Container open, codec rebuild and `decode_text`, each repetition.
    pub decode_s: Vec<f64>,
    /// Publishing the container as a chunked artifact, each repetition.
    pub publish_s: Vec<f64>,
    /// Opening the artifact and rebuilding its codec, each repetition.
    pub open_s: Vec<f64>,
    /// Building the server, each repetition.
    pub start_s: Vec<f64>,
    /// Where the artifact was published.
    pub artifact_dir: PathBuf,
    /// The block requests the fetch clients issued.
    pub requests: Vec<u64>,
    /// The closed-loop fetch phase.
    pub fetch: FetchOutcome,
    /// Server-side decoded-block cache hits and misses.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// The simulation (identical on every replay).
    pub sim: SimReport,
    /// Host time of each replay of the trace.
    pub sim_run_s: Vec<f64>,
    /// Operations attempted and failed on this program.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
}

/// One pass over every program of a workload.
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall_s: f64,
    /// Generating every program, its ELF and its fetch trace, each
    /// repetition.
    pub gen_s: Vec<f64>,
    /// Per-program results, in workload order.
    pub programs: Vec<ProgramPass>,
}

impl Pass {
    /// Uncompressed text bytes over all programs.
    pub fn text_bytes(&self) -> usize {
        self.programs.iter().map(|p| p.input.text.len()).sum()
    }
}

/// Runs one pass inside a `chain` span.  An `Err` is an operation that
/// failed outright; mismatched outputs are counted in the pass instead.
pub fn run_pass(
    workload: &Workload,
    env: &Env,
    tracer: &mut Tracer,
) -> Result<Pass, Box<dyn Error>> {
    let (pass, wall_s) = tracer.span("chain", |t| -> Result<_, Box<dyn Error>> {
        let requests = workload.requests / workload.programs.len();
        let requests = ((requests as f64 * env.scale) as usize).max(1);
        let (inputs, gen_s) = repeat(t, "workload.gen", |_| {
            Ok::<_, Box<dyn Error>>(
                workload
                    .programs
                    .iter()
                    .map(|spec| generate(spec, env.scale, env.seed, requests))
                    .collect::<Vec<_>>(),
            )
        })?;
        let programs = inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| run_program(workload, env, t, input, i))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Pass { wall_s: 0.0, gen_s, programs })
    });
    Ok(Pass { wall_s, ..pass? })
}

fn run_program(
    workload: &Workload,
    env: &Env,
    t: &mut Tracer,
    input: Input,
    index: usize,
) -> Result<ProgramPass, Box<dyn Error>> {
    let mut failed = 0u64;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("perfbench: {}: {what}", workload.name);
            failed += 1;
        }
    };

    let (read, elf_read_s) = t.span("elf.read", |_| -> Result<_, CodecError> {
        let mut elf = ElfStream::open(Cursor::new(&input.elf[..])).map_err(stream_error)?;
        let text = buffered_text(&mut elf)?;
        Ok((elf, text))
    });
    let (mut elf, text) = read?;
    check(text == input.text, ".text read from the ELF differs from the generated text");

    let train_span = match workload.algorithm {
        Algorithm::ByteHuffman => "huffman.train",
        Algorithm::Samc => "samc.train",
        Algorithm::Sadc => "sadc.train",
        _ => "codec.train",
    };
    let (handle, train_s) =
        repeat(t, train_span, |_| workload.algorithm.build(input.isa, BLOCK_SIZE).train(&text))?;
    drop(text);
    let codec = handle.as_block().ok_or("the workload codec is not random-access")?;

    let mut first: Option<Vec<u8>> = None;
    let mut repeats_agree = true;
    let ((report, container), compress_s) = repeat(t, "pipeline.compress", |_| {
        let mut container = Vec::new();
        let report =
            compress_elf(&mut elf, workload.algorithm, codec, &mut container, env.workers)?;
        match &first {
            Some(bytes) => repeats_agree &= *bytes == container,
            None => first = Some(container.clone()),
        }
        Ok::<_, CodecError>((report, container))
    })?;
    drop(first);
    check(container.len() as u64 == report.summary.total_len, "container length disagrees");
    check(repeats_agree, "repeated compressions differ");

    let (decoded, decode_s) = repeat(t, "container.decode", |_| decode_container(&container))?;
    check(decoded == input.text, "decoded container differs from the text");

    let (index_walk, _) = t.span("container.index", |_| {
        block_index(&container).map(|(sizes, offsets)| {
            let requests = block_requests(&input.trace, &offsets, input.requests);
            (sizes, offsets, requests)
        })
    });
    let (block_sizes, offsets, requests) = index_walk?;

    // Publish, open and start repeat together: each repetition publishes
    // into an emptied directory and serves from a fresh server.
    let artifact_dir = env.work_dir.join(format!("artifact-{index}"));
    let config = ServeConfig { workers: env.workers, ..ServeConfig::default() };
    let mut setup = Vec::new();
    let (server, _) = repeat(t, "serve.setup", |t| -> Result<_, Box<dyn Error>> {
        if artifact_dir.exists() {
            std::fs::remove_dir_all(&artifact_dir)?;
        }
        let (published, publish_s) = t.span("serve.publish", |_| {
            let mut reader = ContainerV2Reader::open(Cursor::new(&container[..]))?;
            publish_container(&mut reader, &artifact_dir, DEFAULT_CHUNK_PAYLOAD)
                .map_err(Box::<dyn Error>::from)
        });
        published?;
        let (opened, open_s) = t.span("serve.open", |_| open_with_codec(&artifact_dir));
        let (artifact, served_codec) = opened?;
        let (server, start_s) =
            t.span("serve.start", |_| Server::new(artifact, served_codec, config.clone()));
        setup.push([publish_s, open_s, start_s]);
        Ok(server)
    })?;
    let [publish_s, open_s, start_s] = [0, 1, 2].map(|i| setup.iter().map(|s| s[i]).collect());

    let map = BlockMap { text: &input.text, offsets };
    let epoch = t.recording().then(|| t.epoch());
    let (fetch, _) = t.span("serve.fetch", |t| {
        let mut outcome = closed_loop(&server, &requests, &map, env.clients, epoch);
        t.adopt(std::mem::take(&mut outcome.spans));
        outcome
    });
    let stats = cce_core::serve::json::parse(server.stats_json().as_bytes())?;
    let stat = |key: &str| stats.as_obj().and_then(|o| o.get(key)).and_then(|v| v.as_u64());
    let (cache_hits, cache_misses) = (stat("cache_hits"), stat("cache_misses"));
    drop(server);

    let ((sim, sim_run_s), _) = t.span("memsim.run", |_| simulate(&block_sizes, &input.trace));
    check(sim.iter().all(|r| *r == sim[0]), "repeated simulations of one trace disagree");

    // Each chain stage counts once, however often it repeated.
    let attempted = 5 + fetch.latencies_ns.len() as u64 + sim_run_s.len() as u64;
    Ok(ProgramPass {
        elf_read_s,
        train_s,
        compress_s,
        pipeline: report.stats,
        summary: report.summary,
        container,
        decode_s,
        publish_s,
        open_s,
        start_s,
        artifact_dir,
        requests,
        cache_hits: cache_hits.ok_or("server stats lack cache_hits")?,
        cache_misses: cache_misses.ok_or("server stats lack cache_misses")?,
        sim: sim[0],
        sim_run_s,
        attempted,
        failed: failed + fetch.failed,
        fetch,
        input,
    })
}

/// Opens a v2 container, rebuilds its codec from the embedded model and
/// decodes the whole text — what `cce decompress` does.
pub fn decode_container(bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut reader = ContainerV2Reader::open(Cursor::new(bytes))?;
    let identity = reader.identity();
    let handle = identity
        .algorithm
        .build(identity.isa, reader.block_size())
        .codec_from_bytes(reader.codec_bytes())?;
    let codec: &dyn BlockCodec = handle
        .as_block()
        .ok_or_else(|| CodecError::corrupt("perfbench", "container codec is not random-access"))?;
    reader.decode_text(codec)
}

/// Compressed size of every block, and the text offset each starts at
/// (plus the text end), read from the container's index.
pub fn block_index(bytes: &[u8]) -> Result<(Vec<usize>, Vec<usize>), CodecError> {
    let mut reader = ContainerV2Reader::open(Cursor::new(bytes))?;
    let mut sizes = Vec::with_capacity(reader.block_count());
    let mut offsets = Vec::with_capacity(reader.block_count() + 1);
    offsets.push(0);
    for i in 0..reader.block_count() {
        sizes.push(reader.read_block(i)?.0.len());
        offsets.push(offsets[i] + reader.block_uncompressed_len(i));
    }
    Ok((sizes, offsets))
}

/// Replays `trace` through fresh compressed memory systems until
/// [`SIM_FETCHES`] fetches ran; returns every report and replay time.
fn simulate(block_sizes: &[usize], trace: &[u64]) -> (Vec<SimReport>, Vec<f64>) {
    let lat = Arc::new(LineAddressTable::from_block_sizes(block_sizes.iter().copied()));
    let fresh = MemorySystem::compressed(CACHE, CostModel::default(), lat, CLB_ENTRIES);
    let replays = SIM_FETCHES.div_ceil(trace.len().max(1)).max(1);
    (0..replays)
        .map(|_| {
            let mut system = fresh.clone();
            let start = Instant::now();
            let report = system.run(std::hint::black_box(trace));
            (report, start.elapsed().as_secs_f64())
        })
        .unzip()
}
