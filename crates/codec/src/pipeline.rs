//! Bounded-memory ordered block pipeline.
//!
//! The buffer-oriented [`compress_parallel`](crate::compress_parallel)
//! path needs the whole program in memory before the first block is
//! compressed. This module reshapes that data path into a streaming
//! pipeline with bounded memory:
//!
//! ```text
//!  BlockSource ──► bounded queue ──► N scoped workers ──► reorder ──► BlockSink
//!  (producer)      (≤ queue_depth    (compress_chunk)     window      (in order,
//!                   batches)                              (batches)    per block)
//! ```
//!
//! The calling thread is both the producer and the drainer: it pulls
//! chunks from the [`BlockSource`], packs runs of consecutive chunks into
//! batches of about 64 KiB, pushes each batch into a bounded queue
//! (blocking — and counting a `pipeline.stall` — when the queue is full),
//! and hands every completed block to the [`BlockSink`] strictly in input
//! order. Workers park when a result would land more than `queue_depth`
//! batches ahead of the sink, so at most
//! `queue_depth + workers + queue_depth` batches exist at once no matter
//! how large the input is. Moving batches rather than single blocks pays
//! the lock and wake-up cost once per ~64 KiB instead of once per
//! cache-line block.
//!
//! Determinism: the sink sees blocks in index order, and on failure the
//! pipeline reports the error of the *lowest-indexed* failing block —
//! exactly the error the serial [`BlockCodec::compress`] path would
//! surface — so streaming, parallel, and serial paths are
//! interchangeable byte-for-byte and error-for-error.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::{Condvar, Mutex};

use crate::error::CodecError;
use crate::traits::BlockCodec;

/// Error-source name used by pipeline-internal failures.
const SELF: &str = "pipeline";

/// Size of the reusable read buffer a [`ReadSource`] refills from.
const READ_BUF_LEN: usize = 64 * 1024;

/// Uncompressed bytes per queue item: the threaded pipeline moves blocks
/// in batches of this size (the last block may overrun it), so the
/// locking and signalling cost is paid per batch, not per block.
const BATCH_BYTES: usize = 64 * 1024;

/// One compressed block leaving the pipeline, tagged with its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedBlock {
    /// Zero-based position of the block in the input stream.
    pub index: usize,
    /// Uncompressed length of the chunk this block encodes.
    pub uncompressed_len: usize,
    /// The compressed bytes.
    pub data: Vec<u8>,
}

/// Produces the uncompressed chunks the pipeline compresses.
///
/// Sources are pulled on the calling thread, one chunk at a time, so a
/// file-backed source never needs more than one chunk (plus its read
/// buffer) in memory.
pub trait BlockSource {
    /// Returns the next uncompressed chunk, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// Returns the source's failure (I/O mapped to
    /// [`CodecError::Corrupt`], chunking to [`CodecError::Train`]); the
    /// pipeline stops producing and surfaces it.
    fn next_block(&mut self) -> Result<Option<Vec<u8>>, CodecError>;
}

/// Receives compressed blocks strictly in input order.
pub trait BlockSink {
    /// Accepts the next in-order compressed block.
    ///
    /// # Errors
    ///
    /// A sink failure (e.g. a full disk) aborts the pipeline and is
    /// surfaced to the caller ahead of any codec error.
    fn accept(&mut self, block: CompressedBlock) -> Result<(), CodecError>;
}

/// Incrementally finds block boundaries in a byte stream.
///
/// A chunker sees a growing prefix window of the stream and reports how
/// long the next block is, or that it needs more bytes. It must produce
/// the same boundaries as the codec's
/// [`block_ranges`](BlockCodec::block_ranges) on the full buffer — the
/// differential tests hold streaming and in-memory paths to byte
/// equality.
pub trait Chunker {
    /// Returns the length of the block at the start of `buf`, or `None`
    /// when more bytes are needed (`eof == false`) or the stream is
    /// exhausted (`eof == true` and `buf` is empty).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Train`] when the bytes cannot form a block
    /// (e.g. an undecodable instruction for an instruction-aligned
    /// codec).
    fn next_boundary(&mut self, buf: &[u8], eof: bool) -> Result<Option<usize>, CodecError>;
}

impl<C: Chunker + ?Sized> Chunker for Box<C> {
    fn next_boundary(&mut self, buf: &[u8], eof: bool) -> Result<Option<usize>, CodecError> {
        (**self).next_boundary(buf, eof)
    }
}

/// The default chunker: fixed-size blocks with a partial tail, matching
/// the default [`BlockCodec::block_ranges`] division exactly.
#[derive(Debug, Clone, Copy)]
pub struct FixedChunker {
    size: usize,
}

impl FixedChunker {
    /// A chunker cutting `size`-byte blocks (`size` must be positive).
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "block size must be positive");
        Self { size }
    }
}

impl Chunker for FixedChunker {
    fn next_boundary(&mut self, buf: &[u8], eof: bool) -> Result<Option<usize>, CodecError> {
        if buf.len() >= self.size {
            Ok(Some(self.size))
        } else if eof && !buf.is_empty() {
            Ok(Some(buf.len()))
        } else {
            Ok(None)
        }
    }
}

/// Pipeline tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Number of compression workers (1 runs inline on the caller).
    pub workers: usize,
    /// Bound on queued batches of uncompressed blocks (about 64 KiB
    /// each) and on how many batches workers may run ahead of the sink.
    /// Defaults to `2 × workers`.
    pub queue_depth: usize,
    /// Round-trip every block inside the worker (compress, decompress,
    /// compare) so a streaming caller that never rereads the input still
    /// gets the harness's verification guarantee.
    pub verify: bool,
}

impl PipelineConfig {
    /// A config for `workers` threads with the default `2 × workers`
    /// queue depth and verification off.
    pub fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        Self { workers, queue_depth: workers * 2, verify: false }
    }

    /// Enables in-worker round-trip verification.
    #[must_use]
    pub fn verified(mut self) -> Self {
        self.verify = true;
        self
    }
}

/// What a pipeline run did, for throughput artifacts and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Blocks pushed through the pipeline.
    pub blocks: u64,
    /// Uncompressed bytes consumed from the source.
    pub bytes_in: u64,
    /// Compressed bytes handed to the sink.
    pub bytes_out: u64,
    /// High-water mark of the bounded input queue, in batches.
    pub peak_queue: usize,
    /// Times the producer blocked on a full queue.
    pub stalls: u64,
}

/// A [`BlockSource`] over an in-memory buffer and precomputed ranges —
/// the bridge that lets [`compress_parallel`](crate::compress_parallel)
/// reuse the streaming pipeline unchanged.
pub struct SliceSource<'a> {
    text: &'a [u8],
    ranges: std::vec::IntoIter<Range<usize>>,
}

impl<'a> SliceSource<'a> {
    /// Wraps `text` and the ranges produced by
    /// [`BlockCodec::block_ranges`] over it.
    pub fn new(text: &'a [u8], ranges: Vec<Range<usize>>) -> Self {
        Self { text, ranges: ranges.into_iter() }
    }
}

impl BlockSource for SliceSource<'_> {
    fn next_block(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
        Ok(self.ranges.next().map(|range| self.text[range].to_vec()))
    }
}

/// A [`BlockSource`] over any [`std::io::Read`], cutting blocks with a
/// [`Chunker`] through one reusable read buffer.
pub struct ReadSource<R, C> {
    reader: R,
    chunker: C,
    /// Bytes read so far; `carry[start..]` is not yet released as blocks.
    carry: Vec<u8>,
    /// Consume offset into `carry`: releasing a block only advances it,
    /// and the released prefix is dropped when the buffer is refilled.
    start: usize,
    /// The reusable refill buffer (allocated once).
    buf: Vec<u8>,
    eof: bool,
}

impl<R: std::io::Read, C: Chunker> ReadSource<R, C> {
    /// Streams blocks from `reader`, cutting them with `chunker`.
    pub fn new(reader: R, chunker: C) -> Self {
        Self {
            reader,
            chunker,
            carry: Vec::new(),
            start: 0,
            buf: vec![0; READ_BUF_LEN],
            eof: false,
        }
    }
}

impl<R: std::io::Read, C: Chunker> BlockSource for ReadSource<R, C> {
    fn next_block(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
        loop {
            let unread = &self.carry[self.start..];
            if let Some(len) = self.chunker.next_boundary(unread, self.eof)? {
                debug_assert!(len > 0 && len <= unread.len(), "chunker boundary in range");
                let block = unread[..len].to_vec();
                self.start += len;
                return Ok(Some(block));
            }
            if self.eof {
                return if unread.is_empty() {
                    Ok(None)
                } else {
                    Err(CodecError::corrupt(SELF, "chunker left trailing bytes at end of stream"))
                };
            }
            let n = self
                .reader
                .read(&mut self.buf)
                .map_err(|e| CodecError::corrupt(SELF, format!("read failed: {e}")))?;
            if n == 0 {
                self.eof = true;
            } else {
                // The unread tail is shorter than a block, so compacting
                // here costs O(block) per refill, not per block.
                self.carry.drain(..self.start);
                self.start = 0;
                self.carry.extend_from_slice(&self.buf[..n]);
            }
        }
    }
}

/// A run of consecutive blocks stored back to back in one buffer — the
/// unit the queue, the workers and the reorder window move.
struct Batch {
    /// Position of the batch in the stream of batches.
    seq: usize,
    /// Index of the batch's first block.
    first: usize,
    /// The blocks' bytes, back to back.
    data: Vec<u8>,
    /// End offset of each block in `data`.
    ends: Vec<u32>,
}

impl Batch {
    fn new(seq: usize, first: usize, capacity: usize) -> Self {
        Self { seq, first, data: Vec::with_capacity(capacity), ends: Vec::new() }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn push(&mut self, block: &[u8]) {
        self.data.extend_from_slice(block);
        self.ends.push(u32::try_from(self.data.len()).expect("batch fits in u32"));
    }

    /// The blocks in order.
    fn blocks(&self) -> impl Iterator<Item = &[u8]> {
        spans(&self.ends).map(|range| &self.data[range])
    }
}

/// The byte range of each block, given the blocks' end offsets.
fn spans(ends: &[u32]) -> impl Iterator<Item = Range<usize>> + '_ {
    let starts = std::iter::once(0).chain(ends.iter().copied());
    starts.zip(ends).map(|(start, &end)| start as usize..end as usize)
}

/// A compressed batch, and the end offsets its blocks had before
/// compression (their uncompressed lengths).
struct Compressed {
    blocks: Batch,
    uncompressed_ends: Vec<u32>,
}

/// Everything the producer, workers, and drainer coordinate through.
struct State {
    /// Batches awaiting a worker (bounded by `queue_depth`).
    inq: VecDeque<Batch>,
    /// No more batches will be produced.
    closed: bool,
    /// Abandon all work (sink failure) — workers drop everything.
    abort: bool,
    /// Lowest-indexed failing block seen so far, with its error.
    error: Option<(usize, CodecError)>,
    /// Compressed batches waiting for their turn at the sink, by `seq`.
    pending: BTreeMap<usize, Compressed>,
    /// Next batch `seq` the sink expects.
    next_emit: usize,
    /// Batches popped from `inq` but not yet completed.
    in_flight: usize,
}

impl State {
    fn record_error(&mut self, index: usize, error: CodecError) {
        if self.error.as_ref().is_none_or(|(held, _)| index < *held) {
            self.error = Some((index, error));
        }
    }

    /// Pops the contiguous run of compressed batches starting at
    /// `next_emit`.
    fn take_ready(&mut self) -> Vec<Compressed> {
        let mut out = Vec::new();
        while let Some(batch) = self.pending.remove(&self.next_emit) {
            self.next_emit += 1;
            out.push(batch);
        }
        out
    }
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for queued batches.
    work_cv: Condvar,
    /// The producer/drainer waits here for queue space or ready output.
    main_cv: Condvar,
    /// Workers wait here for the reorder window to open.
    out_cv: Condvar,
    queue_depth: usize,
    /// Bytes reserved per batch: [`BATCH_BYTES`] plus room for the last
    /// block to overrun it (a fixed-size block, or an instruction-aligned
    /// one that straddles the block size), so filling a batch does not
    /// reallocate.
    batch_capacity: usize,
}

/// Runs `source → workers(codec) → sink` with bounded memory.
///
/// Blocks reach `sink` strictly in input order. With
/// `config.workers <= 1` everything runs inline on the calling thread;
/// otherwise `workers` scoped threads compress batches of about 64 KiB
/// of blocks concurrently behind a queue bounded at
/// `config.queue_depth` batches.
///
/// # Errors
///
/// Surfaces, in priority order: the sink's failure, then the
/// lowest-indexed source/compression/verification failure — the same
/// error the serial [`BlockCodec::compress`] path reports.
pub fn run_pipeline(
    codec: &dyn BlockCodec,
    source: &mut dyn BlockSource,
    sink: &mut dyn BlockSink,
    config: &PipelineConfig,
) -> Result<PipelineStats, CodecError> {
    if config.workers <= 1 {
        return run_serial(codec, source, sink, config.verify);
    }
    run_threaded(codec, source, sink, config)
}

/// The inline path: pull, compress, emit, in order, on one thread.
fn run_serial(
    codec: &dyn BlockCodec,
    source: &mut dyn BlockSource,
    sink: &mut dyn BlockSink,
    verify: bool,
) -> Result<PipelineStats, CodecError> {
    let mut stats = PipelineStats::default();
    let mut index = 0;
    while let Some(chunk) = source.next_block()? {
        note_input(&mut stats, 1, chunk.len());
        let data = compress_block(codec, &chunk, verify)?;
        stats.bytes_out += data.len() as u64;
        sink.accept(CompressedBlock { index, uncompressed_len: chunk.len(), data })?;
        index += 1;
    }
    Ok(stats)
}

fn run_threaded(
    codec: &dyn BlockCodec,
    source: &mut dyn BlockSource,
    sink: &mut dyn BlockSink,
    config: &PipelineConfig,
) -> Result<PipelineStats, CodecError> {
    let queue_depth = config.queue_depth.max(1);
    let shared = Shared {
        state: Mutex::new(State {
            inq: VecDeque::with_capacity(queue_depth),
            closed: false,
            abort: false,
            error: None,
            pending: BTreeMap::new(),
            next_emit: 0,
            in_flight: 0,
        }),
        work_cv: Condvar::new(),
        main_cv: Condvar::new(),
        out_cv: Condvar::new(),
        queue_depth,
        batch_capacity: BATCH_BYTES + 2 * codec.block_size(),
    };
    let mut stats = PipelineStats::default();
    let mut sink_error = None;
    std::thread::scope(|scope| {
        for _ in 0..config.workers {
            scope.spawn(|| worker(&shared, codec, config.verify));
        }
        produce(&shared, source, sink, &mut stats, &mut sink_error);
        close_and_drain(&shared, sink, &mut stats, &mut sink_error);
    });
    if let Some(error) = sink_error {
        return Err(error);
    }
    let state = shared.state.into_inner().expect("pipeline lock poisoned");
    match state.error {
        Some((_, error)) => Err(error),
        None => Ok(stats),
    }
}

/// Producer half of the calling thread: pulls blocks from the source
/// into batches of about [`BATCH_BYTES`] and pushes each into the
/// bounded queue.
fn produce(
    shared: &Shared,
    source: &mut dyn BlockSource,
    sink: &mut dyn BlockSink,
    stats: &mut PipelineStats,
    sink_error: &mut Option<CodecError>,
) {
    let mut produced = 0usize;
    for seq in 0.. {
        let mut batch = Batch::new(seq, produced, shared.batch_capacity);
        let filled = fill(source, &mut batch, stats);
        produced += batch.len();
        // The blocks read before a source failure are still compressed:
        // one of them may fail, and a lower index wins.
        if batch.len() > 0 && !push(shared, batch, sink, stats, sink_error) {
            return;
        }
        match filled {
            Ok(true) => {}
            Ok(false) => return,
            Err(error) => {
                // Everything before this index was produced, so min-index
                // error selection still matches the serial path.
                shared.state.lock().expect("pipeline lock poisoned").record_error(produced, error);
                // Workers parked on the reorder window re-check the
                // error flag only when woken.
                shared.out_cv.notify_all();
                return;
            }
        }
    }
}

/// Appends blocks to `batch` until it holds [`BATCH_BYTES`]; returns
/// whether the source may have more.
fn fill(
    source: &mut dyn BlockSource,
    batch: &mut Batch,
    stats: &mut PipelineStats,
) -> Result<bool, CodecError> {
    let more = loop {
        if batch.data.len() >= BATCH_BYTES {
            break Ok(true);
        }
        match source.next_block() {
            Ok(Some(chunk)) => batch.push(&chunk),
            Ok(None) => break Ok(false),
            Err(error) => break Err(error),
        }
    };
    note_input(stats, batch.len(), batch.data.len());
    more
}

/// Queues `batch`, draining ready output while the queue is full.
/// Returns `false` when production must stop: the sink failed, or a
/// block already failed (nothing produced after it can change the
/// surfaced lowest-index error).
fn push(
    shared: &Shared,
    batch: Batch,
    sink: &mut dyn BlockSink,
    stats: &mut PipelineStats,
    sink_error: &mut Option<CodecError>,
) -> bool {
    let mut state = shared.state.lock().expect("pipeline lock poisoned");
    loop {
        let ready = state.take_ready();
        if !ready.is_empty() {
            drop(state);
            if !emit(sink, ready, stats, sink_error) {
                set_abort(shared);
                return false;
            }
            shared.out_cv.notify_all();
            state = shared.state.lock().expect("pipeline lock poisoned");
            continue;
        }
        if state.error.is_some() {
            return false;
        }
        if state.inq.len() < shared.queue_depth {
            state.inq.push_back(batch);
            let depth = state.inq.len();
            stats.peak_queue = stats.peak_queue.max(depth);
            crate::obs::PIPELINE_QUEUE_DEPTH.set_max(depth as u64);
            drop(state);
            shared.work_cv.notify_one();
            return true;
        }
        stats.stalls += 1;
        crate::obs::PIPELINE_STALL.incr();
        state = shared.main_cv.wait(state).expect("pipeline lock poisoned");
    }
}

/// Drainer half of the calling thread: closes the queue, then keeps the
/// sink fed until every in-flight batch has landed.
fn close_and_drain(
    shared: &Shared,
    sink: &mut dyn BlockSink,
    stats: &mut PipelineStats,
    sink_error: &mut Option<CodecError>,
) {
    {
        let mut state = shared.state.lock().expect("pipeline lock poisoned");
        state.closed = true;
        if sink_error.is_some() {
            state.abort = true;
            state.inq.clear();
        }
    }
    shared.work_cv.notify_all();
    shared.out_cv.notify_all();
    let mut state = shared.state.lock().expect("pipeline lock poisoned");
    loop {
        if sink_error.is_none() {
            let ready = state.take_ready();
            if !ready.is_empty() {
                drop(state);
                if !emit(sink, ready, stats, sink_error) {
                    set_abort(shared);
                    state = shared.state.lock().expect("pipeline lock poisoned");
                    continue;
                }
                shared.out_cv.notify_all();
                state = shared.state.lock().expect("pipeline lock poisoned");
                continue;
            }
        }
        if state.inq.is_empty() && state.in_flight == 0 {
            return;
        }
        state = shared.main_cv.wait(state).expect("pipeline lock poisoned");
    }
}

/// Feeds contiguous compressed batches to the sink block by block,
/// accumulating stats. Returns `false` on the first sink failure.
fn emit(
    sink: &mut dyn BlockSink,
    ready: Vec<Compressed>,
    stats: &mut PipelineStats,
    sink_error: &mut Option<CodecError>,
) -> bool {
    for done in ready {
        let blocks = done.blocks.blocks().zip(spans(&done.uncompressed_ends));
        for (i, (data, uncompressed)) in blocks.enumerate() {
            stats.bytes_out += data.len() as u64;
            let block = CompressedBlock {
                index: done.blocks.first + i,
                uncompressed_len: uncompressed.len(),
                data: data.to_vec(),
            };
            if let Err(error) = sink.accept(block) {
                *sink_error = Some(error);
                return false;
            }
        }
    }
    true
}

/// Marks the run aborted (sink failure) and frees every waiter.
fn set_abort(shared: &Shared) {
    let mut state = shared.state.lock().expect("pipeline lock poisoned");
    state.abort = true;
    state.inq.clear();
    drop(state);
    shared.work_cv.notify_all();
    shared.out_cv.notify_all();
}

/// Worker loop: pop a batch, compress (and optionally verify) its
/// blocks, park until the reorder window admits the result, hand it to
/// the drainer.
///
/// After a failure is recorded, workers keep compressing batches already
/// in the queue — a lower-indexed block may fail too, and the pipeline
/// must surface the lowest-indexed error to match the serial path — but
/// drop successful results instead of waiting on a window that will
/// never advance.
fn worker(shared: &Shared, codec: &dyn BlockCodec, verify: bool) {
    loop {
        let batch = {
            let mut state = shared.state.lock().expect("pipeline lock poisoned");
            loop {
                if let Some(batch) = state.inq.pop_front() {
                    state.in_flight += 1;
                    drop(state);
                    shared.main_cv.notify_all();
                    break batch;
                }
                if state.closed {
                    return;
                }
                state = shared.work_cv.wait(state).expect("pipeline lock poisoned");
            }
        };
        let seq = batch.seq;
        let result = compress_batch(codec, batch, verify);
        let failed = result.is_err();
        let mut state = shared.state.lock().expect("pipeline lock poisoned");
        match result {
            Err((index, error)) => state.record_error(index, error),
            Ok(done) => {
                while !state.abort
                    && state.error.is_none()
                    && seq >= state.next_emit + shared.queue_depth
                {
                    state = shared.out_cv.wait(state).expect("pipeline lock poisoned");
                }
                if !state.abort && state.error.is_none() {
                    state.pending.insert(seq, done);
                }
            }
        }
        state.in_flight -= 1;
        drop(state);
        shared.main_cv.notify_all();
        if failed {
            // The errored batch is a permanent hole in `pending`, so
            // `next_emit` will never advance past it: wake any worker
            // parked on the reorder window so it re-checks the error
            // flag instead of sleeping forever.
            shared.out_cv.notify_all();
        }
    }
}

/// Compresses a batch's blocks in order, stopping at the first failure
/// (the lowest-indexed one in the batch), which comes back with its
/// block index.
fn compress_batch(
    codec: &dyn BlockCodec,
    batch: Batch,
    verify: bool,
) -> Result<Compressed, (usize, CodecError)> {
    let mut out = Batch::new(batch.seq, batch.first, batch.data.len());
    for (i, chunk) in batch.blocks().enumerate() {
        let data = compress_block(codec, chunk, verify).map_err(|e| (batch.first + i, e))?;
        out.push(&data);
    }
    Ok(Compressed { blocks: out, uncompressed_ends: batch.ends })
}

/// Compresses one chunk, optionally proving the round trip inside the
/// worker (the streaming path never holds the whole input to verify
/// against afterwards).
fn compress_block(
    codec: &dyn BlockCodec,
    chunk: &[u8],
    verify: bool,
) -> Result<Vec<u8>, CodecError> {
    let data = codec.compress_chunk(chunk)?;
    if verify {
        let back = codec.decompress_block(&data, chunk.len())?;
        if back != chunk {
            return Err(CodecError::round_trip(codec.name()));
        }
    }
    Ok(data)
}

/// Counts consumed chunks in local stats and the global metrics.
fn note_input(stats: &mut PipelineStats, blocks: usize, bytes: usize) {
    stats.blocks += blocks as u64;
    stats.bytes_in += bytes as u64;
    crate::obs::PIPELINE_BLOCKS.add(blocks as u64);
    crate::obs::PIPELINE_BYTES.add(bytes as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Verbatim {
        block_size: usize,
    }

    impl BlockCodec for Verbatim {
        fn name(&self) -> &'static str {
            "verbatim"
        }
        fn block_size(&self) -> usize {
            self.block_size
        }
        fn model_bytes(&self) -> usize {
            0
        }
        fn to_bytes(&self) -> Vec<u8> {
            Vec::new()
        }
        fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, CodecError> {
            if chunk.contains(&0xEE) {
                return Err(CodecError::train("verbatim", "poison byte"));
            }
            Ok(chunk.to_vec())
        }
        fn decompress_block(&self, block: &[u8], _out_len: usize) -> Result<Vec<u8>, CodecError> {
            Ok(block.to_vec())
        }
    }

    /// Collects blocks and asserts they arrive strictly in order.
    #[derive(Default)]
    struct OrderedSink {
        blocks: Vec<CompressedBlock>,
    }

    impl BlockSink for OrderedSink {
        fn accept(&mut self, block: CompressedBlock) -> Result<(), CodecError> {
            assert_eq!(block.index, self.blocks.len(), "blocks must arrive in order");
            self.blocks.push(block);
            Ok(())
        }
    }

    fn source_over(text: &[u8], codec: &dyn BlockCodec) -> SliceSource<'static> {
        // Leak a copy for 'static convenience in tests only.
        let text: &'static [u8] = Box::leak(text.to_vec().into_boxed_slice());
        SliceSource::new(text, codec.block_ranges(text).unwrap())
    }

    #[test]
    fn pipeline_matches_serial_for_any_worker_count() {
        let codec = Verbatim { block_size: 16 };
        // Stay below the 0xEE poison byte the test codec rejects.
        let text: Vec<u8> = (0u8..=200).cycle().take(5000).collect();
        for workers in [1, 2, 3, 8] {
            let mut sink = OrderedSink::default();
            let mut source = source_over(&text, &codec);
            let config = PipelineConfig::with_workers(workers);
            let stats = run_pipeline(&codec, &mut source, &mut sink, &config).unwrap();
            assert_eq!(stats.blocks, 5000_u64.div_ceil(16));
            assert_eq!(stats.bytes_in, 5000);
            assert_eq!(stats.bytes_out, 5000);
            assert!(stats.peak_queue <= config.queue_depth);
            let joined: Vec<u8> = sink.blocks.iter().flat_map(|b| b.data.iter().copied()).collect();
            assert_eq!(joined, text);
        }
    }

    #[test]
    fn pipeline_surfaces_lowest_index_error() {
        let codec = Verbatim { block_size: 4 };
        // Poison two blocks; the lower-indexed one must win at any
        // worker count, matching what serial compression reports.
        let mut text = vec![1u8; 400];
        text[101] = 0xEE; // block 25
        text[41] = 0xEE; // block 10
        let serial_err = BlockCodec::compress(&codec, &text).unwrap_err();
        for workers in [1, 2, 8] {
            let mut sink = OrderedSink::default();
            let mut source = source_over(&text, &codec);
            let config = PipelineConfig::with_workers(workers);
            let err = run_pipeline(&codec, &mut source, &mut sink, &config).unwrap_err();
            assert_eq!(err.to_string(), serial_err.to_string());
        }
    }

    /// Regression: a block error must wake workers parked on the
    /// reorder window. The failing block is a permanent hole in
    /// `pending`, so `next_emit` never advances past it; before the
    /// `out_cv` wakeup on the error path, a worker parked beyond the
    /// window slept forever and the drainer deadlocked on its
    /// `in_flight` count.
    ///
    /// The poison sits near the *end* of the stream: an early error is
    /// rescued by `close_and_drain`'s one-time `out_cv` notify, so the
    /// deadlock only reproduces when the error lands after close —
    /// producer done, the healthy worker parked past the window, and
    /// the slow poison block still in flight.
    #[test]
    fn an_errored_block_frees_workers_parked_on_the_reorder_window() {
        struct SlowPoison {
            block_size: usize,
        }
        impl BlockCodec for SlowPoison {
            fn name(&self) -> &'static str {
                "slow-poison"
            }
            fn block_size(&self) -> usize {
                self.block_size
            }
            fn model_bytes(&self) -> usize {
                0
            }
            fn to_bytes(&self) -> Vec<u8> {
                Vec::new()
            }
            fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, CodecError> {
                if chunk.contains(&0xEE) {
                    // Stall the failure long enough for the other
                    // worker to run past the reorder window and park.
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    return Err(CodecError::train("slow-poison", "poison byte"));
                }
                Ok(chunk.to_vec())
            }
            fn decompress_block(
                &self,
                block: &[u8],
                _out_len: usize,
            ) -> Result<Vec<u8>, CodecError> {
                Ok(block.to_vec())
            }
        }
        let codec = SlowPoison { block_size: 4 };
        // 64 blocks; block 58 fails. The five blocks after it let the
        // healthy worker run `queue_depth` past the stuck `next_emit`
        // and park, while the producer reaches end-of-source before the
        // 2ms poison stall expires.
        let mut text = vec![1u8; 256];
        text[58 * 4] = 0xEE;
        for _ in 0..50 {
            let mut sink = OrderedSink::default();
            let mut source = source_over(&text, &codec);
            let config = PipelineConfig::with_workers(2);
            let err = run_pipeline(&codec, &mut source, &mut sink, &config).unwrap_err();
            assert!(err.to_string().contains("poison byte"), "unexpected error: {err}");
            assert!(
                sink.blocks.iter().all(|b| b.index < 58),
                "nothing may reach the sink past the failed block"
            );
        }
    }

    #[test]
    fn verify_catches_a_lying_codec() {
        struct Liar;
        impl BlockCodec for Liar {
            fn name(&self) -> &'static str {
                "liar"
            }
            fn block_size(&self) -> usize {
                8
            }
            fn model_bytes(&self) -> usize {
                0
            }
            fn to_bytes(&self) -> Vec<u8> {
                Vec::new()
            }
            fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, CodecError> {
                Ok(chunk.to_vec())
            }
            fn decompress_block(
                &self,
                block: &[u8],
                _out_len: usize,
            ) -> Result<Vec<u8>, CodecError> {
                let mut out = block.to_vec();
                if let Some(b) = out.first_mut() {
                    *b ^= 1;
                }
                Ok(out)
            }
        }
        let codec = Liar;
        let text = vec![7u8; 64];
        let ranges = codec.block_ranges(&text).unwrap();
        let mut source = SliceSource::new(&text, ranges);
        let mut sink = OrderedSink::default();
        let config = PipelineConfig::with_workers(2).verified();
        let err = run_pipeline(&codec, &mut source, &mut sink, &config).unwrap_err();
        assert!(matches!(err, CodecError::RoundTrip { .. }));
    }

    #[test]
    fn sink_errors_take_priority() {
        struct FailingSink;
        impl BlockSink for FailingSink {
            fn accept(&mut self, _block: CompressedBlock) -> Result<(), CodecError> {
                Err(CodecError::corrupt("sink", "disk full"))
            }
        }
        let codec = Verbatim { block_size: 4 };
        let text = vec![1u8; 256];
        for workers in [1, 4] {
            let mut source = source_over(&text, &codec);
            let config = PipelineConfig::with_workers(workers);
            let err = run_pipeline(&codec, &mut source, &mut FailingSink, &config).unwrap_err();
            assert_eq!(err.to_string(), "sink: corrupt data: disk full");
        }
    }

    /// A reader returning 1 to 7 bytes per call, so refills split
    /// blocks at odd offsets.
    struct Dribble<'a> {
        bytes: &'a [u8],
        calls: usize,
    }

    impl std::io::Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let n = (self.calls % 7 + 1).min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_source_cuts_the_same_blocks_as_block_ranges() {
        // Stay below the 0xEE poison byte the test codec rejects.
        let text: Vec<u8> = (0u8..=200).cycle().take(3000).collect();
        for block_size in [1, 5, 32, 64] {
            let codec = Verbatim { block_size };
            let expected: Vec<Vec<u8>> =
                codec.block_ranges(&text).unwrap().into_iter().map(|r| text[r].to_vec()).collect();
            let readers: [Box<dyn std::io::Read>; 2] =
                [Box::new(&text[..]), Box::new(Dribble { bytes: &text, calls: 0 })];
            for reader in readers {
                let mut source = ReadSource::new(reader, FixedChunker::new(block_size));
                let mut streamed = Vec::new();
                while let Some(chunk) = source.next_block().unwrap() {
                    streamed.push(chunk);
                }
                assert_eq!(streamed, expected, "block size {block_size}");
            }

            // The dribbled stream through the threaded pipeline.
            let reader = Dribble { bytes: &text, calls: 0 };
            let mut source = ReadSource::new(reader, FixedChunker::new(block_size));
            let mut sink = OrderedSink::default();
            run_pipeline(&codec, &mut source, &mut sink, &PipelineConfig::with_workers(3)).unwrap();
            let blocks: Vec<Vec<u8>> = sink.blocks.into_iter().map(|b| b.data).collect();
            assert_eq!(blocks, expected, "block size {block_size}");
        }
    }

    #[test]
    fn read_source_handles_empty_input() {
        let mut source = ReadSource::new(&[][..], FixedChunker::new(8));
        assert_eq!(source.next_block().unwrap(), None);
        assert_eq!(source.next_block().unwrap(), None);
    }

    #[test]
    fn queue_depth_bounds_are_respected_under_slow_sink() {
        struct SlowSink {
            seen: usize,
        }
        impl BlockSink for SlowSink {
            fn accept(&mut self, block: CompressedBlock) -> Result<(), CodecError> {
                assert_eq!(block.index, self.seen);
                self.seen += 1;
                std::thread::sleep(std::time::Duration::from_micros(200));
                Ok(())
            }
        }
        let codec = Verbatim { block_size: 8 };
        let text = vec![3u8; 4096];
        let mut source = source_over(&text, &codec);
        let config = PipelineConfig::with_workers(4);
        let mut sink = SlowSink { seen: 0 };
        let stats = run_pipeline(&codec, &mut source, &mut sink, &config).unwrap();
        assert_eq!(sink.seen as u64, stats.blocks);
        assert!(stats.peak_queue <= config.queue_depth);
    }

    /// Batch-boundary fixtures: 16-byte blocks whose first four bytes
    /// hold the block index, so an error names the block that raised it.
    mod batches {
        use super::*;

        const BLOCK: usize = 16;
        /// Blocks per batch at [`BLOCK`]-byte blocks.
        const B: usize = BATCH_BYTES / BLOCK;

        /// Fails a block whose fifth byte is 0xEE; otherwise "compresses"
        /// to the reversed block, one byte longer for odd indices, so
        /// sizes and payloads differ from the input.
        struct Tagged;

        fn tag(chunk: &[u8]) -> u32 {
            u32::from_be_bytes(chunk[..4].try_into().unwrap())
        }

        impl BlockCodec for Tagged {
            fn name(&self) -> &'static str {
                "tagged"
            }
            fn block_size(&self) -> usize {
                BLOCK
            }
            fn model_bytes(&self) -> usize {
                0
            }
            fn to_bytes(&self) -> Vec<u8> {
                Vec::new()
            }
            fn compress_chunk(&self, chunk: &[u8]) -> Result<Vec<u8>, CodecError> {
                let index = tag(chunk);
                if chunk[4] == 0xEE {
                    return Err(CodecError::train("tagged", format!("poison in block {index}")));
                }
                let mut out: Vec<u8> = chunk.iter().rev().copied().collect();
                if index % 2 == 1 {
                    out.push(0x55);
                }
                Ok(out)
            }
            fn decompress_block(
                &self,
                block: &[u8],
                out_len: usize,
            ) -> Result<Vec<u8>, CodecError> {
                Ok(block[block.len() - out_len..].iter().rev().copied().collect())
            }
        }

        /// `blocks` tagged blocks, the listed ones poisoned.
        fn text(blocks: usize, poisoned: &[usize]) -> Vec<u8> {
            (0..blocks)
                .flat_map(|i| {
                    let mut block = [0u8; BLOCK];
                    block[..4].copy_from_slice(&(i as u32).to_be_bytes());
                    block[4] = if poisoned.contains(&i) { 0xEE } else { 0 };
                    for (j, byte) in block.iter_mut().enumerate().skip(5) {
                        *byte = (i * 7 + j) as u8;
                    }
                    block
                })
                .collect()
        }

        /// What the sink must see: every block compressed in order.
        fn expected(text: &[u8]) -> Vec<CompressedBlock> {
            Tagged
                .block_ranges(text)
                .unwrap()
                .into_iter()
                .enumerate()
                .map(|(index, range)| CompressedBlock {
                    index,
                    uncompressed_len: range.len(),
                    data: Tagged.compress_chunk(&text[range]).unwrap(),
                })
                .collect()
        }

        fn run(text: &[u8], workers: usize) -> (Result<PipelineStats, CodecError>, OrderedSink) {
            let mut sink = OrderedSink::default();
            let mut source = SliceSource::new(text, Tagged.block_ranges(text).unwrap());
            let config = PipelineConfig::with_workers(workers);
            (run_pipeline(&Tagged, &mut source, &mut sink, &config), sink)
        }

        #[test]
        fn every_batch_boundary_gives_the_serial_sink_sequence() {
            for blocks in [0, 1, B - 1, B, B + 1, 3 * B + 7] {
                let text = text(blocks, &[]);
                let expected = expected(&text);
                for workers in [1, 2, 3, 8] {
                    let (stats, sink) = run(&text, workers);
                    let stats = stats.unwrap();
                    assert_eq!(sink.blocks, expected, "{blocks} blocks, {workers} workers");
                    assert_eq!(stats.blocks, blocks as u64);
                    assert_eq!(stats.bytes_in, text.len() as u64);
                    let bytes_out: usize = expected.iter().map(|b| b.data.len()).sum();
                    assert_eq!(stats.bytes_out, bytes_out as u64);
                    assert!(stats.peak_queue <= PipelineConfig::with_workers(workers).queue_depth);
                }
            }
        }

        #[test]
        fn the_lowest_indexed_error_wins_across_and_within_batches() {
            let cases: [&[usize]; 4] = [
                &[B - 1, 2 * B + 3], // last block of a batch
                &[B, B + 1],         // first block of the next batch
                &[B + 9, B + 4],     // two in one batch
                &[2 * B, B + 5],     // the later batch holds the lower one
            ];
            for poisoned in cases {
                let text = text(3 * B + 7, poisoned);
                let first = *poisoned.iter().min().unwrap();
                let serial = BlockCodec::compress(&Tagged, &text).unwrap_err();
                assert_eq!(
                    serial.to_string(),
                    format!("tagged: cannot train: poison in block {first}")
                );
                for workers in [1, 2, 3, 8] {
                    let (result, sink) = run(&text, workers);
                    let err = result.unwrap_err();
                    assert_eq!(
                        err.to_string(),
                        serial.to_string(),
                        "{poisoned:?}, {workers} workers"
                    );
                    assert!(sink.blocks.iter().all(|b| b.index < first));
                }
            }
        }

        /// Yields `text`'s blocks, failing in place of block `fail_at`.
        struct FailingSource {
            blocks: std::vec::IntoIter<Vec<u8>>,
            next: usize,
            fail_at: usize,
        }

        impl BlockSource for FailingSource {
            fn next_block(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
                if self.next == self.fail_at {
                    return Err(CodecError::corrupt(
                        "source",
                        format!("read failed at {}", self.next),
                    ));
                }
                self.next += 1;
                Ok(self.blocks.next())
            }
        }

        fn failing_source(text: &[u8], fail_at: usize) -> FailingSource {
            let blocks: Vec<Vec<u8>> = text.chunks(BLOCK).map(<[u8]>::to_vec).collect();
            FailingSource { blocks: blocks.into_iter(), next: 0, fail_at }
        }

        #[test]
        fn a_source_error_mid_batch_surfaces_at_its_index() {
            let fail_at = B + 5;
            for workers in [1, 2, 3, 8] {
                let text = text(3 * B + 7, &[]);
                let mut source = failing_source(&text, fail_at);
                let mut sink = OrderedSink::default();
                let config = PipelineConfig::with_workers(workers);
                let err = run_pipeline(&Tagged, &mut source, &mut sink, &config).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    format!("source: corrupt data: read failed at {fail_at}")
                );
                assert!(sink.blocks.iter().all(|b| b.index < fail_at));

                // A block read before the failure, in the same batch, fails
                // first: its lower index wins over the source error.
                let text = self::text(3 * B + 7, &[B + 2]);
                let mut source = failing_source(&text, fail_at);
                let mut sink = OrderedSink::default();
                let err = run_pipeline(&Tagged, &mut source, &mut sink, &config).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    format!("tagged: cannot train: poison in block {}", B + 2)
                );
            }
        }
    }
}
