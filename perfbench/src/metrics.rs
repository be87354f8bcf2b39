//! The metrics the benchmark reports, and how each is computed from the
//! passes and probes of a run.
//!
//! End-to-end metrics are medians over the samples of untraced passes,
//! except the exact ones (`ratio`, `artifact_ratio`, `cpf`), which must
//! read the same on every pass and are checked to.  Per-layer metrics
//! come from the traced passes and the probes.

use crate::chain::Pass;
use crate::probe::{self, CodecProbe};
use crate::stats::{median, quantile_sorted};
use crate::tracer::{self_times, Span};
use crate::workload::{probe_corpus, Input, Workload};
use cce_core::isa::Isa;
use cce_core::report::{json_number, json_string};
use cce_core::Algorithm;
use std::collections::BTreeMap;
use std::error::Error;

/// A reported metric.
pub struct Metric {
    /// Name in the result object and `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`: which way is better.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: "higher" }
}

/// What a user of the system sees, printed by `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    lower("setup_s", "s"),
    lower("train_s", "s"),
    higher("compress_mb_s", "MiB/s"),
    higher("decompress_mb_s", "MiB/s"),
    lower("ratio", "ratio"),
    lower("artifact_ratio", "ratio"),
    lower("peak_rss_mib", "MiB"),
    lower("fetch_p50_us", "us"),
    lower("fetch_p99_us", "us"),
    higher("fetch_rps", "1/s"),
    lower("cpf", "cycles"),
    higher("sim_mfetch_s", "Mfetch/s"),
];

/// One figure per layer, printed by `--trace 1`.  The comment after each
/// group names the end-to-end metric it should move.
pub const PER_LAYER: &[Metric] = &[
    lower("workload.gen_s", "s"), // setup_s
    lower("elf.read_s", "s"),     // compress_mb_s
    lower("huffman.train_s", "s"),
    higher("huffman.encode_mb_s", "MiB/s"),
    higher("huffman.decode_mb_s", "MiB/s"), // compress_mb_s, decompress_mb_s
    higher("bitstream.write_mb_s", "MiB/s"),
    higher("bitstream.read_mb_s", "MiB/s"), // compress_mb_s, decompress_mb_s
    lower("pipeline.compress_s", "s"),
    lower("pipeline.stalls", "count"),
    lower("pipeline.peak_queue", "count"),
    higher("pipeline.scaling", "ratio"),
    higher("pipeline.efficiency", "ratio"), // compress_mb_s
    lower("container.decode_s", "s"),       // decompress_mb_s
    lower("container.overhead_bytes_per_block", "B"), // artifact_ratio
    lower("samc.train_s", "s"),
    higher("samc.encode_mb_s", "MiB/s"),
    higher("samc.decode_mb_s", "MiB/s"),
    higher("arith.decode_mbit_s", "Mbit/s"), // train_s, compress/decompress_mb_s, fetch_p99_us
    lower("sadc.train_s.mips", "s"),
    lower("sadc.train_s.x86", "s"),
    higher("sadc.encode_mb_s", "MiB/s"),
    higher("sadc.decode_mb_s", "MiB/s"), // train_s, compress_mb_s
    higher("sadc.dict_hit_ratio", "ratio"), // ratio
    lower("serve.publish_s", "s"),
    lower("serve.open_s", "s"), // setup_s
    lower("serve.read_block_p50_us", "us"),
    lower("serve.read_block_p99_us", "us"),
    lower("serve.decode_block_us", "us"), // fetch_p99_us
    higher("serve.cache_hit_ratio", "ratio"),
    lower("serve.service_us", "us"), // fetch_p50_us, fetch_rps
    lower("memsim.run_s", "s"),      // sim_mfetch_s
    higher("memsim.cache_hit_ratio", "ratio"),
    higher("memsim.clb_hit_ratio", "ratio"),
    lower("memsim.refill_cycles_per_miss", "cycles"), // cpf
    lower("trace.overhead", "ratio"),
    lower("share.workload", "share"),
    lower("share.elf", "share"),
    lower("share.train", "share"),
    lower("share.pipeline", "share"),
    lower("share.container", "share"),
    lower("share.serve", "share"),
    lower("share.memsim", "share"),
    lower("share.unaccounted", "share"),
];

/// The layers a pass's wall time is split into, in chain order.
const LAYERS: [&str; 7] = ["workload", "elf", "train", "pipeline", "container", "serve", "memsim"];

/// Layer of a span: the part of its name before the first `.`, except
/// that every codec's `<codec>.train` span belongs to `train`.
fn layer_of(name: &str) -> &str {
    if name.ends_with(".train") {
        "train"
    } else {
        name.split('.').next().unwrap_or(name)
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Calm fetch windows a run needs before its fetch figures leave out
/// the windows during which the hypervisor stole CPU time.
const MIN_CALM_WINDOWS: usize = 30;

/// Every sample a run took, pooled over its passes.  Each figure is a
/// median over a pool, so a pass or repetition disturbed by the shared
/// host moves nothing, and the number of passes that fit in the run
/// does not matter.
#[derive(Default)]
pub struct Samples {
    /// Wall time of each pass.
    pub wall_s: Vec<f64>,
    gen_s: Vec<f64>,
    programs: Vec<ProgramSamples>,
    fetch_windows: Vec<crate::fetch::Window>,
    fetch_requests: usize,
    sim_mfetch_s: Vec<f64>,
    cache_hit_ratio: Vec<f64>,
    stalls: Vec<f64>,
    peak_queue: Vec<f64>,
    exact: Vec<Exact>,
    /// Mean server-side handling time of each traced pass (µs).
    pub service_us: Vec<f64>,
    /// Share of each pass's CPU time the hypervisor stole.
    pub steal_share: Vec<f64>,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
}

/// One program's timing samples, every repetition of every pass.
#[derive(Default)]
struct ProgramSamples {
    text_mib: f64,
    elf_read_s: Vec<f64>,
    train_s: Vec<f64>,
    compress_s: Vec<f64>,
    decode_s: Vec<f64>,
    publish_s: Vec<f64>,
    open_s: Vec<f64>,
    start_s: Vec<f64>,
    sim_run_s: Vec<f64>,
}

/// The figures that depend only on the seed, never on timing: every
/// pass must reproduce them bit for bit.
#[derive(Clone, Copy, PartialEq)]
struct Exact {
    ratio: f64,
    artifact_ratio: f64,
    overhead_bytes_per_block: f64,
    cpf: f64,
    sim_cache_hit_ratio: f64,
    sim_clb_hit_ratio: f64,
    refill_cycles_per_miss: f64,
}

impl Samples {
    /// Adds a pass's samples.
    pub fn add(&mut self, pass: &Pass) {
        let programs = &pass.programs;
        let sum =
            |f: &dyn Fn(&crate::chain::ProgramPass) -> u64| programs.iter().map(f).sum::<u64>();
        self.programs.resize_with(programs.len(), ProgramSamples::default);
        for (samples, p) in self.programs.iter_mut().zip(programs) {
            samples.text_mib = p.input.text.len() as f64 / MIB;
            samples.elf_read_s.push(p.elf_read_s);
            samples.train_s.extend(&p.train_s);
            samples.compress_s.extend(&p.compress_s);
            samples.decode_s.extend(&p.decode_s);
            samples.publish_s.extend(&p.publish_s);
            samples.open_s.extend(&p.open_s);
            samples.start_s.extend(&p.start_s);
            samples.sim_run_s.extend(&p.sim_run_s);
            self.fetch_windows.extend(crate::fetch::windows(&p.fetch));
            self.fetch_requests += p.fetch.latencies_ns.len();
            self.sim_mfetch_s.extend(p.sim_run_s.iter().map(|s| p.sim.fetches as f64 / s / 1e6));
        }
        self.wall_s.push(pass.wall_s);
        self.gen_s.extend(&pass.gen_s);
        let (hits, misses) = (sum(&|p| p.cache_hits), sum(&|p| p.cache_misses));
        self.cache_hit_ratio.push(hits as f64 / (hits + misses) as f64);
        self.stalls.push(sum(&|p| p.pipeline.stalls) as f64);
        self.peak_queue
            .push(programs.iter().map(|p| p.pipeline.peak_queue).max().unwrap_or(0) as f64);

        let original = sum(&|p| p.summary.original_len) as f64;
        let total_len = sum(&|p| p.summary.total_len);
        let accesses = sum(&|p| p.sim.cache.accesses()) as f64;
        let misses = sum(&|p| p.sim.cache.misses) as f64;
        self.exact.push(Exact {
            ratio: sum(&|p| (p.summary.compressed_len() + p.summary.lat_bytes()) as u64) as f64
                / original,
            artifact_ratio: total_len as f64 / original,
            overhead_bytes_per_block: (total_len - sum(&|p| p.summary.data_len)) as f64
                / sum(&|p| p.summary.blocks as u64) as f64,
            cpf: sum(&|p| p.sim.cycles) as f64 / sum(&|p| p.sim.fetches) as f64,
            sim_cache_hit_ratio: (accesses - misses) / accesses,
            sim_clb_hit_ratio: sum(&|p| p.sim.clb_hits) as f64
                / sum(&|p| p.sim.clb_hits + p.sim.clb_misses) as f64,
            refill_cycles_per_miss: sum(&|p| p.sim.refill_cycles) as f64 / misses,
        });
        let (attempted, failed) =
            programs.iter().fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed));
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Sum over programs of the median of each program's samples.
    fn sum_of_medians(&self, f: impl Fn(&ProgramSamples) -> &Vec<f64>) -> f64 {
        self.programs.iter().map(|p| median(f(p).iter().copied())).sum()
    }

    fn text_mib(&self) -> f64 {
        self.programs.iter().map(|p| p.text_mib).sum()
    }

    fn setup_s(&self) -> f64 {
        median(self.gen_s.iter().copied())
            + self.sum_of_medians(|p| &p.publish_s)
            + self.sum_of_medians(|p| &p.open_s)
            + self.sum_of_medians(|p| &p.start_s)
    }

    fn compress_mb_s(&self) -> f64 {
        self.text_mib() / self.sum_of_medians(|p| &p.compress_s)
    }

    /// Median of `f` over the fetch windows without host steal, or over
    /// every window when fewer than [`MIN_CALM_WINDOWS`] were calm.
    fn fetch(&self, f: fn(&crate::fetch::Window) -> f64) -> f64 {
        let calm: Vec<f64> = self.fetch_windows.iter().filter(|w| !w.stolen).map(f).collect();
        if calm.len() >= MIN_CALM_WINDOWS {
            median(calm)
        } else {
            median(self.fetch_windows.iter().map(f))
        }
    }

    /// The pooled samples, so a reader can see the spread behind each
    /// median.
    pub fn to_json(&self) -> String {
        let list = |v: &[f64]| {
            format!("[{}]", v.iter().map(|x| json_number(*x)).collect::<Vec<_>>().join(","))
        };
        let programs: Vec<String> = self
            .programs
            .iter()
            .map(|p| {
                let fields = [
                    ("elf_read_s", &p.elf_read_s),
                    ("train_s", &p.train_s),
                    ("compress_s", &p.compress_s),
                    ("decode_s", &p.decode_s),
                    ("publish_s", &p.publish_s),
                    ("open_s", &p.open_s),
                    ("start_s", &p.start_s),
                    ("sim_run_s", &p.sim_run_s),
                ];
                let body: Vec<String> =
                    fields.iter().map(|(k, v)| format!("\"{k}\":{}", list(v))).collect();
                format!("{{\"text_mib\":{},{}}}", json_number(p.text_mib), body.join(","))
            })
            .collect();
        let windows: Vec<String> = self
            .fetch_windows
            .iter()
            .map(|w| list(&[w.p50_us, w.p99_us, w.rps, f64::from(u8::from(w.stolen))]))
            .collect();
        format!(
            "{{\"wall_s\":{},\"gen_s\":{},\"programs\":[{}],\"fetch_requests\":{},\
             \"fetch_windows\":[{}],\"sim_mfetch_s\":{},\"cache_hit_ratio\":{},\
             \"steal_share\":{}}}",
            list(&self.wall_s),
            list(&self.gen_s),
            programs.join(","),
            self.fetch_requests,
            windows.join(","),
            list(&self.sim_mfetch_s),
            list(&self.cache_hit_ratio),
            list(&self.steal_share),
        )
    }
}

/// Counts the passes in `runs` (passes of one seed) whose exact figures
/// differ from the first pass's.
pub fn check_exact(runs: &[&Samples]) -> u64 {
    let mut passes = runs.iter().flat_map(|s| &s.exact);
    let Some(first) = passes.next() else { return 0 };
    let differing = passes.filter(|e| *e != first).count();
    if differing > 0 {
        eprintln!("perfbench: exact figures changed in {differing} passes of one seed");
    }
    differing as u64
}

/// The end-to-end metrics of a run.
pub fn end_to_end(s: &Samples, peak_rss_mib: f64) -> Vec<(&'static Metric, f64)> {
    let exact = s.exact[0];
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "setup_s" => s.setup_s(),
                "train_s" => s.sum_of_medians(|p| &p.train_s),
                "compress_mb_s" => s.compress_mb_s(),
                "decompress_mb_s" => s.text_mib() / s.sum_of_medians(|p| &p.decode_s),
                "ratio" => exact.ratio,
                "artifact_ratio" => exact.artifact_ratio,
                "peak_rss_mib" => peak_rss_mib,
                "fetch_p50_us" => s.fetch(|w| w.p50_us),
                "fetch_p99_us" => s.fetch(|w| w.p99_us),
                "fetch_rps" => s.fetch(|w| w.rps),
                "cpf" => exact.cpf,
                "sim_mfetch_s" => median(s.sim_mfetch_s.iter().copied()),
                other => unreachable!("end-to-end metric {other} has no value"),
            };
            (m, value)
        })
        .collect()
}

/// Figures of the per-layer probes of one traced run.
pub struct Probes {
    huffman: CodecProbe,
    samc: CodecProbe,
    sadc: CodecProbe,
    sadc_train_mips_s: f64,
    sadc_train_x86_s: f64,
    bitstream_write_mb_s: f64,
    bitstream_read_mb_s: f64,
    one_worker_mb_s: f64,
    native_encode_mb_s: f64,
    read_block_p50_us: f64,
    read_block_p99_us: f64,
    decode_block_us: f64,
    /// Probe operations attempted and failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
}

/// Requests of the first program timed by the direct `read_block`
/// probe; each read hashes a whole chunk, so the probe stays short.
const READ_PROBE_REQUESTS: usize = 2_000;

/// Runs every per-layer probe.  The workload's own codec is probed on
/// the workload's programs; the other codecs on the 64 KiB MIPS + x86
/// probe corpus from the same seed, so every layer reads a measured
/// value on every workload.
pub fn run_probes(
    workload: &Workload,
    env: &crate::chain::Env,
    pass: &Pass,
) -> Result<Probes, Box<dyn Error>> {
    let native: Vec<&Input> = pass.programs.iter().map(|p| &p.input).collect();
    let corpus = probe_corpus(env.scale, env.seed);
    let corpus: Vec<&Input> = corpus.iter().collect();
    let inputs = |algorithm| if algorithm == workload.algorithm { &native } else { &corpus };
    let huffman = probe::codec(Algorithm::ByteHuffman, inputs(Algorithm::ByteHuffman))?;
    let samc = probe::codec(Algorithm::Samc, inputs(Algorithm::Samc))?;
    let sadc = probe::codec(Algorithm::Sadc, inputs(Algorithm::Sadc))?;
    let sadc_train = |isa| {
        inputs(Algorithm::Sadc)
            .iter()
            .zip(&sadc.train_s)
            .filter(|(i, _)| i.isa == isa)
            .map(|(_, s)| s)
            .sum()
    };
    let (sadc_train_mips_s, sadc_train_x86_s) = (sadc_train(Isa::Mips), sadc_train(Isa::X86));
    let (bitstream_write_mb_s, bitstream_read_mb_s) = probe::bitstream(&native)?;

    let own = match workload.algorithm {
        Algorithm::ByteHuffman => &huffman,
        Algorithm::Samc => &samc,
        Algorithm::Sadc => &sadc,
        other => return Err(format!("no probe for {other}").into()),
    };
    let one_worker = probe::pipeline(workload.algorithm, &native, &own.handles, 1)?;
    let mut failed = 0;
    for (program, container) in pass.programs.iter().zip(&one_worker.containers) {
        if &program.container != container {
            eprintln!(
                "perfbench: {}: 1-worker container differs from the {}-worker one",
                workload.name, env.workers
            );
            failed += 1;
        }
    }
    let text_mib = pass.text_bytes() as f64 / MIB;

    let first = &pass.programs[0];
    let requests = &first.requests[..first.requests.len().min(READ_PROBE_REQUESTS)];
    let (reads, decodes) = probe::serve_reads(&first.artifact_dir, requests)?;
    let attempted = (native.len() + 2 * corpus.len()) as u64 * 3
        + 1
        + one_worker.containers.len() as u64
        + reads.len() as u64;
    Ok(Probes {
        sadc_train_mips_s,
        sadc_train_x86_s,
        bitstream_write_mb_s,
        bitstream_read_mb_s,
        one_worker_mb_s: text_mib / one_worker.secs,
        native_encode_mb_s: own.encode_mb_s,
        read_block_p50_us: quantile_sorted(&reads, 0.5) as f64 / 1e3,
        read_block_p99_us: quantile_sorted(&reads, 0.99) as f64 / 1e3,
        decode_block_us: quantile_sorted(&decodes, 0.5) as f64 / 1e3,
        huffman,
        samc,
        sadc,
        attempted,
        failed,
    })
}

/// The per-layer metrics of a traced run.
pub fn per_layer(
    traced: &Samples,
    shares: &[BTreeMap<&'static str, f64>],
    probes: &Probes,
    overhead: f64,
    workers: usize,
) -> Vec<(&'static Metric, f64)> {
    let med = |v: &[f64]| median(v.iter().copied());
    let share = |layer: &str| median(shares.iter().map(|s| s.get(layer).copied().unwrap_or(0.0)));
    let exact = traced.exact[0];
    PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.name {
                "workload.gen_s" => med(&traced.gen_s),
                "elf.read_s" => traced.sum_of_medians(|p| &p.elf_read_s),
                "huffman.train_s" => probes.huffman.train_s.iter().sum(),
                "huffman.encode_mb_s" => probes.huffman.encode_mb_s,
                "huffman.decode_mb_s" => probes.huffman.decode_mb_s,
                "bitstream.write_mb_s" => probes.bitstream_write_mb_s,
                "bitstream.read_mb_s" => probes.bitstream_read_mb_s,
                "pipeline.compress_s" => traced.sum_of_medians(|p| &p.compress_s),
                "pipeline.stalls" => med(&traced.stalls),
                "pipeline.peak_queue" => med(&traced.peak_queue),
                "pipeline.scaling" => traced.compress_mb_s() / probes.one_worker_mb_s,
                "pipeline.efficiency" => {
                    traced.compress_mb_s() / (probes.native_encode_mb_s * workers as f64)
                }
                "container.decode_s" => traced.sum_of_medians(|p| &p.decode_s),
                "container.overhead_bytes_per_block" => exact.overhead_bytes_per_block,
                "samc.train_s" => probes.samc.train_s.iter().sum(),
                "samc.encode_mb_s" => probes.samc.encode_mb_s,
                "samc.decode_mb_s" => probes.samc.decode_mb_s,
                "arith.decode_mbit_s" => probes.samc.arith_decode_mbit_s,
                "sadc.train_s.mips" => probes.sadc_train_mips_s,
                "sadc.train_s.x86" => probes.sadc_train_x86_s,
                "sadc.encode_mb_s" => probes.sadc.encode_mb_s,
                "sadc.decode_mb_s" => probes.sadc.decode_mb_s,
                "sadc.dict_hit_ratio" => probes.sadc.dict_hit_ratio,
                "serve.publish_s" => traced.sum_of_medians(|p| &p.publish_s),
                "serve.open_s" => traced.sum_of_medians(|p| &p.open_s),
                "serve.read_block_p50_us" => probes.read_block_p50_us,
                "serve.read_block_p99_us" => probes.read_block_p99_us,
                "serve.decode_block_us" => probes.decode_block_us,
                "serve.cache_hit_ratio" => med(&traced.cache_hit_ratio),
                "serve.service_us" => med(&traced.service_us),
                "memsim.run_s" => traced.sum_of_medians(|p| &p.sim_run_s),
                "memsim.cache_hit_ratio" => exact.sim_cache_hit_ratio,
                "memsim.clb_hit_ratio" => exact.sim_clb_hit_ratio,
                "memsim.refill_cycles_per_miss" => exact.refill_cycles_per_miss,
                "trace.overhead" => overhead,
                name => match name.strip_prefix("share.") {
                    Some(layer) => share(layer),
                    None => unreachable!("per-layer metric {name} has no value"),
                },
            };
            (m, value)
        })
        .collect()
}

/// Share of the pass's wall time spent in each layer's top-level spans,
/// plus the `unaccounted` remainder (the `chain` span's self time).
pub fn layer_shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let wall = spans[0].secs();
    let mut shares: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for span in spans.iter().filter(|s| s.parent == Some(0)) {
        *shares.entry(layer_of(span.name)).or_default() += span.secs() / wall;
    }
    let covered: f64 = spans.iter().filter(|s| s.parent == Some(0)).map(Span::secs).sum();
    shares.insert("unaccounted", (wall - covered).max(0.0) / wall);
    shares
}

/// Self time of a traced pass, per span name: the pass's wall time,
/// the unaccounted remainder (the root span's own time), and for each
/// name its span count and total self time.
pub struct SelfTimes {
    wall_s: f64,
    unaccounted_s: f64,
    rows: BTreeMap<&'static str, (u64, f64)>,
}

impl SelfTimes {
    /// Aggregates `spans`, whose first span is the pass's root.
    pub fn of(spans: &[Span]) -> Self {
        let own = self_times(spans);
        let mut rows: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (span, s) in spans.iter().zip(&own).skip(1) {
            let row = rows.entry(span.name).or_default();
            row.0 += 1;
            row.1 += s;
        }
        Self { wall_s: spans[0].secs(), unaccounted_s: own[0], rows }
    }

    /// One line per span name, then the unaccounted remainder.
    pub fn lines(&self) -> Vec<String> {
        let line = |name: &str, count: u64, s: f64| {
            format!(
                "self {name:<20} {count:>8} spans {s:>12.6} s {:>7.2}%",
                100.0 * s / self.wall_s
            )
        };
        let mut lines: Vec<String> =
            self.rows.iter().map(|(name, &(count, s))| line(name, count, s)).collect();
        lines.push(line("(unaccounted)", 1, self.unaccounted_s));
        lines
    }

    /// The table as a JSON object.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(name, &(count, s))| {
                format!(
                    "{}:{{\"layer\":{},\"count\":{count},\"self_s\":{},\"share\":{}}}",
                    json_string(name),
                    json_string(layer_of(name)),
                    json_number(s),
                    json_number(s / self.wall_s)
                )
            })
            .collect();
        format!(
            "{{\"wall_s\":{},\"unaccounted_s\":{},\"unaccounted_share\":{},\"spans\":{{{}}}}}",
            json_number(self.wall_s),
            json_number(self.unaccounted_s),
            json_number(self.unaccounted_s / self.wall_s),
            rows.join(",")
        )
    }
}

/// Every span as `[name, start_ns, end_ns, parent, request]`, with -1
/// for a missing parent or request id.
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "[{},{},{},{},{}]",
                json_string(s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or(-1, |p| p as i64),
                s.request.map_or(-1, |r| r as i64)
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}
