//! `cce-perfbench`: the repository benchmark.
//!
//! Drives one seeded workload through the public API of `cce-core`
//! along the whole chain — generated program → ELF → train → streamed
//! compress into a v2 container → decode → publish → serve/fetch →
//! memory-system simulation — repeating the chain for `--seconds` and
//! reporting medians.  Every output byte is checked; any failure makes
//! the run exit 1 with `"correct": false`.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-samc --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes, runs the per-layer probes and prints the
//! per-layer metrics.  The last stdout line is the result object; the
//! full result (provenance, samples, and for traced runs the layer
//! breakdown, spans and the program's own obs registry) is written under
//! `perfbench/out/`.  Run from the repository root.
//!
//! The self-tests (a shrunken smoke run of every workload, input
//! determinism, and a corrupted chunk surfacing as counted failures)
//! run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

mod chain;
mod fetch;
mod host;
mod metrics;
mod probe;
mod stats;
mod tracer;
mod workload;

use cce_core::report::{json_number, json_string};
use chain::{run_pass, Env, Pass};
use metrics::{Metric, Samples};
use stats::median;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tracer::Tracer;
use workload::Workload;

/// Passes every untraced run makes at least.
const MIN_PASSES: usize = 3;

/// Where results, traces and scratch artifacts go.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds `{value}`"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <stream-huffman|sadc-train|serve-samc> --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tag = format!("{}-seed{}-trace{}", args.workload.name, args.seed, u8::from(args.trace));
    let env = Env {
        workers: nproc,
        clients: nproc,
        scale: 1.0,
        seed: args.seed,
        work_dir: Path::new(OUT_DIR).join(format!("work-{tag}-{}", std::process::id())),
    };
    let outcome = run(&args, &env);
    let _ = std::fs::remove_dir_all(&env.work_dir);
    match outcome.and_then(|report| finish(&args, &env, &tag, report)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name);
            ExitCode::FAILURE
        }
    }
}

/// Everything one run produced.
pub struct Report {
    /// Metric values, in the order of the printed table.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Passes made (untraced and traced).
    pub passes: usize,
    /// Extra JSON members for the result file (samples, layers, spans).
    pub detail: Vec<(&'static str, String)>,
    /// Lines printed before the metric table.
    pub notes: Vec<String>,
}

fn run(args: &Args, env: &Env) -> Result<Report, Box<dyn Error>> {
    std::fs::create_dir_all(&env.work_dir)?;
    if args.trace {
        traced_run(args.workload, env, args.seconds as f64)
    } else {
        timed_run(args.workload, env, args.seconds as f64)
    }
}

/// A pass during which the hypervisor stole more than this share of
/// the guest's CPU time ran on a disturbed host (see
/// [`host::steal_ticks`]); calm passes measure below 1%.
const STEAL_LIMIT: f64 = 0.02;

/// Untraced passes for about `seconds` (at least [`MIN_PASSES`]); the
/// end-to-end metrics are medians over the samples of the calm passes,
/// or of every pass when fewer than [`MIN_PASSES`] were calm.
pub fn timed_run(workload: &Workload, env: &Env, seconds: f64) -> Result<Report, Box<dyn Error>> {
    let start = Instant::now();
    let (mut all, mut calm) = (Samples::default(), Samples::default());
    let mut peak_rss_mib = None;
    while all.wall_s.len() < MIN_PASSES || room(start, &all, 1.0, seconds) {
        let steal = host::steal_ticks();
        let pass = run_pass(workload, env, &mut Tracer::new(start, false))?;
        let stolen_s = (host::steal_ticks() - steal) as f64 / 100.0;
        let steal_share = stolen_s / (pass.wall_s * env.workers as f64);
        // The fresh process's peak over one pass is what running the
        // chain once costs; later passes add allocator retention.
        if peak_rss_mib.is_none() {
            peak_rss_mib = Some(host::peak_rss_mib()?);
        }
        let calm_pass = steal_share <= STEAL_LIMIT;
        for samples in [Some(&mut all), calm_pass.then_some(&mut calm)].into_iter().flatten() {
            samples.add(&pass);
            samples.steal_share.push(steal_share);
        }
    }
    let measured = if calm.wall_s.len() >= MIN_PASSES { &calm } else { &all };
    Ok(Report {
        metrics: metrics::end_to_end(measured, peak_rss_mib.expect("a pass ran")),
        attempted: all.attempted,
        failed: metrics::check_exact(&[&all]) + all.failed,
        passes: all.wall_s.len(),
        detail: vec![("calm_passes", calm.wall_s.len().to_string()), ("samples", all.to_json())],
        notes: Vec::new(),
    })
}

/// Whether `passes` more passes as long as the last one end within
/// `seconds` of `start`: runs end near `seconds` however long a pass is.
fn room(start: Instant, samples: &Samples, passes: f64, seconds: f64) -> bool {
    let last = samples.wall_s.last().copied().unwrap_or(0.0);
    start.elapsed().as_secs_f64() + passes * last <= seconds
}

/// Alternates untraced and traced passes for about half of `seconds`
/// (at least one pair), then runs the per-layer probes.
pub fn traced_run(workload: &Workload, env: &Env, seconds: f64) -> Result<Report, Box<dyn Error>> {
    let start = Instant::now();
    let (mut untraced, mut traced) = (Samples::default(), Samples::default());
    let mut shares = Vec::new();
    let mut last: Option<(Pass, Vec<tracer::Span>, String)> = None;
    while traced.wall_s.is_empty() || room(start, &traced, 2.0, seconds / 2.0) {
        untraced.add(&run_pass(workload, env, &mut Tracer::new(start, false))?);
        cce_core::obs::reset();
        let mut tracer = Tracer::new(start, true);
        let pass = run_pass(workload, env, &mut tracer)?;
        traced.add(&pass);
        traced.service_us.push(probe::histogram_mean("serve.latency_micros"));
        let obs = cce_core::obs::metrics_json(&format!("perfbench {}", workload.name));
        let spans = tracer.take();
        shares.push(metrics::layer_shares(&spans));
        last = Some((pass, spans, obs));
    }
    let (pass, spans, obs) = last.expect("at least one traced pass ran");
    let probes = metrics::run_probes(workload, env, &pass)?;
    let overhead = median(traced.wall_s.iter().copied()) / median(untraced.wall_s.iter().copied());
    let self_times = metrics::SelfTimes::of(&spans);
    Ok(Report {
        metrics: metrics::per_layer(&traced, &shares, &probes, overhead, env.workers),
        attempted: untraced.attempted + traced.attempted + probes.attempted,
        failed: metrics::check_exact(&[&untraced, &traced])
            + untraced.failed
            + traced.failed
            + probes.failed,
        passes: untraced.wall_s.len() + traced.wall_s.len(),
        detail: vec![
            ("samples", traced.to_json()),
            ("layers", self_times.to_json()),
            ("obs", obs),
            ("spans", metrics::spans_json(&spans)),
        ],
        notes: self_times.lines(),
    })
}

/// Prints the metric table and result line, writes the result file, and
/// says whether the run was correct.
fn finish(args: &Args, env: &Env, tag: &str, report: Report) -> Result<bool, Box<dyn Error>> {
    let correct = report.failed == 0;
    let provenance = provenance(args, env, report.passes);
    println!("provenance {provenance}");
    for note in &report.notes {
        println!("{note}");
    }
    for (metric, value) in &report.metrics {
        println!(
            "{:<34} {:>16} {:<8} ({} is better)",
            metric.name,
            json_number(*value),
            metric.unit,
            metric.better
        );
    }
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        report
            .metrics
            .iter()
            .map(|(m, v)| format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(m.name),
                json_number(*v),
                json_string(m.unit)
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut file = format!("{{\"provenance\":{provenance},\"result\":{line},\"metrics\":[");
    file.push_str(
        &report
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "{{\"name\":{},\"value\":{},\"unit\":{},\"better\":{}}}",
                    json_string(m.name),
                    json_number(*v),
                    json_string(m.unit),
                    json_string(m.better)
                )
            })
            .collect::<Vec<_>>()
            .join(","),
    );
    file.push(']');
    for (key, json) in &report.detail {
        file.push_str(&format!(",{}:{json}", json_string(key)));
    }
    file.push_str("}\n");
    std::fs::write(Path::new(OUT_DIR).join(format!("{tag}.json")), file)?;
    if !correct {
        eprintln!(
            "perfbench: {}: {} of {} operations FAILED",
            args.workload.name, report.failed, report.attempted
        );
    }
    println!("{line}");
    Ok(correct)
}

/// Host, settings and source identity of a result.
fn provenance(args: &Args, env: &Env, passes: usize) -> String {
    format!(
        "{{\"benchmark\":\"cce-perfbench\",\"workload\":{},\"why\":{},\"seed\":{},\"seconds\":{},\
         \"trace\":{},\"passes\":{passes},\"host\":{{\"cpus\":{},\"os\":{},\"arch\":{}}},\
         \"workers\":{},\"clients\":{},\"commit\":{},\"source_fnv64\":\"{:016x}\",\
         \"obs_enabled\":{},\"profile\":{}}}",
        json_string(args.workload.name),
        json_string(args.workload.why),
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_string(std::env::consts::OS),
        json_string(std::env::consts::ARCH),
        env.workers,
        env.clients,
        json_string(&git_commit().unwrap_or_else(|| "unknown".to_owned())),
        source_digest(),
        cce_core::obs::enabled(),
        json_string(if cfg!(debug_assertions) { "debug" } else { "release" }),
    )
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}

/// FNV-1a over the path and bytes of every source file the benchmark
/// builds from, in sorted order: identifies the code measured even in a
/// checkout that is not a git repository.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.push(PathBuf::from("perfbench/Cargo.toml"));
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_core::serve::json::{parse, Json};
    use cce_core::serve::{ServeConfig, Server};

    /// Shrinks every workload 32× so the smoke runs take seconds.
    const SMOKE_SCALE: f64 = 1.0 / 32.0;

    fn env(name: &str) -> Env {
        let work_dir = PathBuf::from("out").join(format!("test-{name}"));
        let _ = std::fs::remove_dir_all(&work_dir);
        std::fs::create_dir_all(&work_dir).expect("create the test work directory");
        Env { workers: 2, clients: 2, scale: SMOKE_SCALE, seed: 5, work_dir }
    }

    /// `BENCHMARK.json`'s list under `key`, each entry as its values of
    /// `fields`.
    fn declared(key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        let bytes = std::fs::read("../BENCHMARK.json").expect("BENCHMARK.json at the repo root");
        let json = parse(&bytes).expect("BENCHMARK.json parses");
        let list = json.as_obj().and_then(|o| o.get(key)).and_then(Json::as_arr).expect(key);
        list.iter()
            .map(|entry| {
                let get = |k: &&str| entry.as_obj().and_then(|o| o.get(*k)).and_then(Json::as_str);
                fields.iter().map(|k| get(k).expect(k).to_owned()).collect()
            })
            .collect()
    }

    const METRIC_FIELDS: [&str; 3] = ["name", "unit", "better"];

    fn reported(report: &Report) -> Vec<Vec<String>> {
        report
            .metrics
            .iter()
            .map(|(m, _)| vec![m.name.into(), m.unit.into(), m.better.into()])
            .collect()
    }

    #[test]
    fn smoke_every_workload_reports_every_declared_metric() {
        let names: Vec<Vec<String>> =
            workload::WORKLOADS.iter().map(|w| vec![w.name.into(), w.why.into()]).collect();
        assert_eq!(declared("workloads", &["name", "why"]), names, "workload lists differ");
        for workload in &workload::WORKLOADS {
            let env = env(workload.name);
            let timed = timed_run(workload, &env, 0.0).expect("untraced smoke run");
            assert_eq!(timed.failed, 0, "{}", workload.name);
            assert_eq!(
                reported(&timed),
                declared("end_to_end", &METRIC_FIELDS),
                "{}",
                workload.name
            );
            for (metric, value) in &timed.metrics {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{}: {} = {value}",
                    workload.name,
                    metric.name
                );
            }
            let traced = traced_run(workload, &env, 0.0).expect("traced smoke run");
            assert_eq!(traced.failed, 0, "{}", workload.name);
            assert_eq!(
                reported(&traced),
                declared("per_layer", &METRIC_FIELDS),
                "{}",
                workload.name
            );
            for (metric, value) in &traced.metrics {
                assert!(
                    value.is_finite() && *value >= 0.0,
                    "{}: {} = {value}",
                    workload.name,
                    metric.name
                );
            }
            std::fs::remove_dir_all(&env.work_dir).expect("remove the test work directory");
        }
    }

    fn copy_dir(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).expect("create the copy");
        for entry in std::fs::read_dir(from).expect("list the artifact") {
            let path = entry.expect("artifact entry").path();
            let target = to.join(path.file_name().expect("entry name"));
            if path.is_dir() {
                copy_dir(&path, &target);
            } else {
                std::fs::copy(&path, &target).expect("copy an artifact file");
            }
        }
    }

    #[test]
    fn a_flipped_chunk_byte_is_a_counted_failure() {
        let workload = workload::by_name("serve-samc").expect("serve-samc exists");
        let env = env("flip");
        let pass = run_pass(workload, &env, &mut Tracer::new(Instant::now(), false)).expect("pass");
        let program = &pass.programs[0];
        assert_eq!(program.failed, 0);

        let flipped = env.work_dir.join("flipped");
        copy_dir(&program.artifact_dir, &flipped);
        let chunk = flipped.join("chunks").join("00000000.chunk");
        let mut bytes = std::fs::read(&chunk).expect("read chunk 0");
        bytes[0] ^= 0x01;
        std::fs::write(&chunk, bytes).expect("write chunk 0");

        let (artifact, codec) = cce_core::artifact::open_with_codec(&flipped).expect("open copy");
        let server = Server::new(artifact, codec, ServeConfig::default());
        let (_, offsets) = chain::block_index(&program.container).expect("index");
        let map = fetch::BlockMap { text: &program.input.text, offsets };
        let outcome = fetch::closed_loop(&server, &program.requests, &map, 2, None);
        let in_chunk_0 = program.requests.iter().filter(|&&b| b < 2048).count() as u64;
        assert!(in_chunk_0 > 0, "the request stream never touches chunk 0");
        assert!(outcome.failed >= in_chunk_0, "{} of {in_chunk_0} failed", outcome.failed);
        let missed = outcome.latencies_ns.iter().filter(|&&ns| ns == u64::MAX).count() as u64;
        assert_eq!(missed, outcome.failed, "every failure misses every latency limit");
        std::fs::remove_dir_all(&env.work_dir).expect("remove the test work directory");
    }
}
