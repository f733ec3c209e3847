//! The fox-vs-xk benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk|rpc|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One single-threaded process drives both stacks on the simulated
//! network, alternating between them slice by slice so that both see the
//! same machine conditions. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs traced copies of both cells next to untraced ones and
//! reports the per-layer metrics, writing the spans as a Chrome trace and
//! the per-layer table under `perfbench/out/`. The last line of standard
//! output is the JSON result; everything else goes to standard error.
//! See `perfbench/NOTES.md` for the workloads and what each metric is for.

mod alloc;
mod pair;
mod refk;
mod shim;
mod stack;
mod trace;
mod workload;

use foxbasis::obs::EventSink;
use foxbasis::time::VirtualTime;
use foxharness::bench::BenchProfile;
use foxharness::stack::StackKind;
use foxharness::{bulk_transfer, Station};
use pair::Pair;
use simnet::SimNet;
use stack::{FoxStack, XkStack};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};
use trace::{NoTrace, Recorder, Tracer, LAYERS};
use workload::{Cell, Exact, Runner, Timed, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Timed ops per block over which one p99 is taken (ten beyond it).
const P99_BLOCK: usize = 1000;
/// Fewest timed ops per cell: p99 then has at least ten samples beyond it.
const MIN_TIMED_OPS: u64 = 1000;
/// Spans each traced cell keeps for the Chrome trace.
const KEPT_SPANS: usize = 40_000;
/// Wall time after which the run loop stops whatever the op counts.
const HARD_STOP: Duration = Duration::from_secs(150);
/// Bytes of the assembly check's Table 1 transfer.
const TABLE1_BYTES: usize = 1_000_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let w = get("--workload")?;
    let num = |s: String, what: &str| s.parse::<u64>().map_err(|_| format!("bad {what}: {s}"));
    let args = Args {
        workload: Workload::parse(&w).ok_or(format!("unknown workload {w} (bulk, rpc, churn)"))?,
        seed: num(get("--seed")?, "seed")?,
        seconds: num(get("--seconds")?, "seconds")?.max(1),
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("bad --trace {t} (0 or 1)")),
        },
    };
    Ok(args)
}

/// A fox client and a fox server.
fn fox_cell<R: Recorder>(
    idx: usize,
    w: Workload,
    seed: u64,
    rec: R,
    tracer: Option<Tracer>,
) -> Box<dyn Runner> {
    alloc::reset_live(idx);
    alloc::in_cell(idx, || {
        let p = w.profile();
        let net = SimNet::new(p.net_config(), seed);
        let server = FoxStack::new(&net, 1, 2, p, rec.clone());
        let client = FoxStack::new(&net, 2, 1, p, rec.clone());
        let pair = Pair { net, client, server, rec, ticks: 0 };
        Box::new(Cell::new("fox", idx, w, seed, pair, tracer)) as Box<dyn Runner>
    })
}

/// An xk server, with an xk client on bulk and rpc and a fox client on
/// churn: xk never reaps actively opened sockets, so an xk client's
/// table grows without bound under churn.
fn xk_cell<R: Recorder>(
    idx: usize,
    w: Workload,
    seed: u64,
    rec: R,
    tracer: Option<Tracer>,
) -> Box<dyn Runner> {
    alloc::reset_live(idx);
    alloc::in_cell(idx, || {
        let p = w.profile();
        let net = SimNet::new(p.net_config(), seed);
        let server = XkStack::new(&net, 1, 2, p, rec.clone());
        if w == Workload::Churn {
            let client = FoxStack::new(&net, 2, 1, p, rec.clone());
            let pair = Pair { net, client, server, rec, ticks: 0 };
            Box::new(Cell::new("xk", idx, w, seed, pair, tracer)) as Box<dyn Runner>
        } else {
            let client = XkStack::new(&net, 2, 1, p, rec.clone());
            let pair = Pair { net, client, server, rec, ticks: 0 };
            Box::new(Cell::new("xk", idx, w, seed, pair, tracer)) as Box<dyn Runner>
        }
    })
}

/// Cells 0 and 1 are untraced fox and xk; a traced run adds traced
/// copies as cells 2 and 3.
fn build_cells(a: &Args) -> Vec<Box<dyn Runner>> {
    let cap = (a.seconds as usize * 150_000).clamp(MIN_TIMED_OPS as usize * 4, 8_000_000);
    let (w, s) = (a.workload, a.seed);
    let mut cells = vec![fox_cell(0, w, s, NoTrace(0), None), xk_cell(1, w, s, NoTrace(1), None)];
    if a.trace {
        let (tf, tx) = (Tracer::new(2, KEPT_SPANS), Tracer::new(3, KEPT_SPANS));
        cells.push(fox_cell(2, w, s, tf.clone(), Some(tf)));
        cells.push(xk_cell(3, w, s, tx.clone(), Some(tx)));
    }
    for c in cells.iter_mut() {
        c.reserve(cap);
    }
    cells
}

fn drop_cells(cells: Vec<Box<dyn Runner>>) {
    for (idx, c) in cells.into_iter().enumerate() {
        alloc::in_cell(idx, move || drop(c));
    }
}

/// Runs the paper's Table 1 transfer through `foxharness::bulk_transfer`
/// on the benchmark's shimmed stations and on stations built by
/// `StackKind::build_batched`; the wire-segment count and virtual elapsed
/// time must agree.
fn assembly_check<R: Recorder>(seed: u64, rec: R) -> Vec<String> {
    let p = BenchProfile::Paper1994;
    let deadline = VirtualTime::from_micros(u64::MAX / 2);
    let mut problems = Vec::new();
    for kind in [StackKind::FoxStandard, StackKind::XKernel] {
        let build = |net: &SimNet, id: u16, peer: u16| {
            kind.build_batched(
                net,
                id,
                peer,
                p.cost(kind),
                false,
                p.tcp_config(),
                EventSink::off(),
                p.batch(),
            )
        };
        let net = SimNet::new(p.net_config(), seed);
        let (mut s, mut r) = (build(&net, 1, 2), build(&net, 2, 1));
        let want = bulk_transfer(&net, &mut s, &mut r, TABLE1_BYTES, deadline);
        let net = SimNet::new(p.net_config(), seed);
        let ours = |id: u16, peer: u16| -> Box<dyn Station> {
            match kind {
                StackKind::XKernel => Box::new(XkStack::new(&net, id, peer, p, rec.clone())),
                _ => Box::new(FoxStack::new(&net, id, peer, p, rec.clone())),
            }
        };
        let (mut s, mut r) = (ours(1, 2), ours(2, 1));
        let got = bulk_transfer(&net, &mut s, &mut r, TABLE1_BYTES, deadline);
        let segs = |b: &foxharness::BulkResult| b.sender.segments_sent + b.receiver.segments_sent;
        if got.bytes != TABLE1_BYTES || segs(&got) != segs(&want) || got.elapsed != want.elapsed {
            problems.push(format!(
                "assembly check {}: {} B, {} segments, {:?} against {} B, {} segments, {:?}",
                kind.name(),
                got.bytes,
                segs(&got),
                got.elapsed,
                want.bytes,
                segs(&want),
                want.elapsed
            ));
        }
    }
    problems
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted values.
fn pct<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].into()
}

/// The JSON result's metrics, in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (n, v, u)) in self.0.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        s.push('}');
        s
    }
}

/// Wall-clock summary of one cell's timed phase. Times are rescaled to
/// the nominal machine speed (see `refk`), except the `raw_` ones.
struct Wall {
    ops: u64,
    ops_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    /// Median slowness of the machine while this cell ran.
    slowness: f64,
    raw_p50_us: f64,
    /// Raw wall time per op over every op of the timed phase.
    raw_mean_ns: f64,
}

/// Summarizes `t`, whose `k`-th slice ran while the machine's slowness
/// was `slowness[k]`.
fn wall(t: &Timed, slowness: &[f64]) -> Wall {
    let mut scaled = Vec::with_capacity(t.lat_ns.len());
    let mut rates = Vec::with_capacity(t.slices.len());
    let mut i = 0;
    for (&(ops, ns), &f) in t.slices.iter().zip(slowness) {
        let ops = ops as usize;
        scaled.extend(t.lat_ns[i..i + ops].iter().map(|&l| f64::from(l) / f));
        rates.push(ops as f64 / (ns as f64 / f / 1e9));
        i += ops;
    }
    // p99 per block of timed ops, then the median over blocks: one bad
    // spell on the machine moves one block, not the result.
    let mut p99s: Vec<f64> = scaled
        .chunks(P99_BLOCK)
        .filter(|b| b.len() == P99_BLOCK || scaled.len() < P99_BLOCK)
        .map(|b| {
            let mut b = b.to_vec();
            b.sort_by(f64::total_cmp);
            pct(&b, 0.99)
        })
        .collect();
    scaled.sort_by(f64::total_cmp);
    let mut raw = t.lat_ns.clone();
    raw.sort_unstable();
    Wall {
        ops: raw.len() as u64,
        ops_per_s: median(&mut rates),
        p50_us: pct(&scaled, 0.5) / 1e3,
        p99_us: median(&mut p99s) / 1e3,
        slowness: median(&mut slowness.to_vec()),
        raw_p50_us: pct(&raw, 0.5) / 1e3,
        raw_mean_ns: t.phase_ns as f64 / t.phase_ops.max(1) as f64,
    }
}

fn end_to_end(m: &mut Metrics, s: &str, w: &Wall, e: &Exact, window: usize) {
    let n = window as f64;
    m.put(format!("{s}.ops_per_s"), w.ops_per_s, "1/s");
    m.put(format!("{s}.op_p50_us"), w.p50_us, "us");
    m.put(format!("{s}.op_p99_us"), w.p99_us, "us");
    m.put(format!("{s}.allocs_per_op"), e.allocs.total_allocs() as f64 / n, "count");
    m.put(format!("{s}.heap_peak_kb"), e.heap_peak as f64 / 1024.0, "KiB");
    m.put(format!("{s}.virtual_op_p50_us"), e.virtual_p50_us as f64, "us_virtual");
}

fn per_layer(m: &mut Metrics, s: &str, w: &Wall, t: &Timed, e: &Exact, window: usize, table: &mut String) {
    let ops = t.phase_ops.max(1) as f64;
    let n = window as f64;
    let layers = t.layers.unwrap_or_default();
    let _ = writeln!(
        table,
        "{s}: {} timed ops, {:.3} us/op traced wall time, machine slowness {:.3}",
        w.ops,
        w.raw_mean_ns / 1e3,
        w.slowness
    );
    let _ = writeln!(
        table,
        "  {:<7} {:>12} {:>12} {:>12} {:>14}",
        "layer", "self_us/op", "calls/op", "allocs/op", "alloc_kb/op"
    );
    for l in LAYERS {
        let i = l as usize;
        let self_us = layers.self_ns[i] as f64 / 1e3 / ops / w.slowness;
        let calls = layers.calls[i] as f64 / ops;
        let allocs = e.allocs.allocs[i] as f64 / n;
        let kb = e.allocs.bytes[i] as f64 / 1024.0 / n;
        let _ = writeln!(table, "  {:<7} {self_us:>12.3} {calls:>12.2} {allocs:>12.2} {kb:>14.3}", l.name());
        m.put(format!("{s}.{}.self_us_per_op", l.name()), self_us, "us");
        m.put(format!("{s}.{}.calls_per_op", l.name()), calls, "count");
        m.put(format!("{s}.{}.allocs_per_op", l.name()), allocs, "count");
        m.put(format!("{s}.{}.alloc_kb_per_op", l.name()), kb, "KiB");
    }
    let c = &e.counters;
    m.put(format!("{s}.wire_segs_per_op"), c.segs as f64 / n, "count");
    m.put(format!("{s}.retx_per_op"), c.retx as f64 / n, "count");
    m.put(format!("{s}.timer_arms_per_op"), c.arms as f64 / n, "count");
    m.put(format!("{s}.timer_cancels_per_op"), c.cancels as f64 / n, "count");
    m.put(format!("{s}.timer_fires_per_op"), c.fires as f64 / n, "count");
    m.put(format!("{s}.timer_cascades_per_op"), c.cascades as f64 / n, "count");
    m.put(format!("{s}.demux_steps_per_lookup"), c.steps as f64 / c.lookups.max(1) as f64, "count");
    m.put(format!("{s}.ticks_per_op"), e.ticks as f64 / n, "count");
    m.put(format!("{s}.tcbs_live"), e.tcbs_live as f64, "count");
    let covered: u64 = layers.self_ns.iter().sum();
    let coverage = covered as f64 / (w.raw_mean_ns * ops);
    m.put(format!("{s}.span_coverage"), coverage, "ratio");
    let _ = writeln!(table, "  span self times cover {:.1}% of traced op time", coverage * 100.0);
    if s == "fox" {
        m.put("fox.fastpath_share", c.fp_hits as f64 / (c.fp_hits + c.fp_misses).max(1) as f64, "ratio");
    }
}

fn write_trace(a: &Args, cells: &[Box<dyn Runner>], table: &str) -> std::io::Result<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}", a.workload.name(), a.seed);
    let mut json = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for c in cells {
        if let Some(t) = c.tracer() {
            if !first {
                json.push_str(",\n");
            }
            first = false;
            t.chrome_events(if c.stack() == "fox" { 1 } else { 2 }, c.stack(), &mut json);
        }
    }
    json.push_str("\n]}\n");
    std::fs::write(dir.join(format!("trace-{stem}.json")), json)?;
    std::fs::write(dir.join(format!("layers-{stem}.txt")), table)
}

fn run(a: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let started = Instant::now();
    let w = a.workload;
    let mut problems = assembly_check(a.seed, NoTrace(alloc::OUTSIDE_CELL));
    if a.trace {
        problems.extend(assembly_check(a.seed, Tracer::new(alloc::OUTSIDE_CELL, 0)));
    }

    // Set-up: build and warm both cells several times; the same seed must
    // reach the same state every time, traced or not.
    let mut refk = refk::RefKernel::new();
    let reps = if a.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut cells: Vec<Box<dyn Runner>> = Vec::new();
    let mut first_fp = None;
    for _ in 0..reps {
        drop_cells(std::mem::take(&mut cells));
        let before = refk.slowness();
        let t0 = Instant::now();
        cells = build_cells(a);
        let mut fp = Vec::new();
        for c in cells.iter_mut() {
            fp.push(c.setup()?);
        }
        let secs = t0.elapsed().as_secs_f64();
        setup_s.push(secs / ((before + refk.slowness()) / 2.0));
        if a.trace && (fp[0] != fp[2] || fp[1] != fp[3]) {
            problems.push("traced cells reached another state than untraced ones".into());
        }
        match &first_fp {
            None => first_fp = Some(fp),
            Some(f) if *f != fp => problems.push("same seed reached another state on a second set-up".into()),
            Some(_) => {}
        }
    }

    // Timed phase: the cells take turns, one slice each, with a slice of
    // the reference workload between any two.
    let end = Instant::now() + Duration::from_secs(a.seconds);
    let min_ops = MIN_TIMED_OPS.max(w.window_ops() as u64);
    let mut slowness: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut before = refk.slice();
    loop {
        for (c, f) in cells.iter_mut().zip(slowness.iter_mut()) {
            let ops = c.timed_ops();
            c.slice(w.slice_ops());
            let after = refk.slice();
            if c.timed_ops() > ops {
                f.push((before + after) / 2.0);
            }
            before = after;
        }
        if cells.iter().any(|c| c.dead()) || started.elapsed() > HARD_STOP {
            break;
        }
        if Instant::now() >= end && cells.iter().all(|c| c.timed_ops() >= min_ops) {
            break;
        }
    }

    let (mut attempted, mut failed) = (0, 0);
    for c in &cells {
        let (at, f) = c.attempts();
        attempted += at;
        failed += f;
        problems.extend(c.problems());
        if c.exact().is_none() {
            problems.push(format!("{}: fewer timed ops than the exact-metric window", c.stack()));
        }
    }
    if a.trace {
        for (plain, traced) in [(0, 2), (1, 3)] {
            if let (Some(p), Some(t)) = (cells[plain].exact(), cells[traced].exact()) {
                if !p.same_counts(t) {
                    problems.push(format!(
                        "{}: traced exact metrics {t:?} differ from untraced {p:?}",
                        cells[plain].stack()
                    ));
                }
            }
        }
    }
    let timed: Vec<Timed> = cells.iter_mut().map(|c| c.timed()).collect();
    let walls: Vec<Wall> = timed.iter().zip(&slowness).map(|(t, f)| wall(t, f)).collect();

    let mut m = Metrics::default();
    let window = w.window_ops();
    if cells.iter().all(|c| c.exact().is_some()) {
        if !a.trace {
            m.put("setup_s", median(&mut setup_s), "s");
            for i in 0..2 {
                let e = cells[i].exact().ok_or("exact metrics missing")?;
                end_to_end(&mut m, cells[i].stack(), &walls[i], e, window);
            }
            m.put("fox_over_xk", walls[1].p50_us / walls[0].p50_us, "ratio");
            m.put("ok_share", 1.0 - failed as f64 / attempted.max(1) as f64, "ratio");
        } else {
            let mut table =
                format!("perfbench {} seed {}: per-layer costs of the traced run\n", w.name(), a.seed);
            for i in 2..4 {
                let e = cells[i].exact().ok_or("exact metrics missing")?;
                per_layer(&mut m, cells[i].stack(), &walls[i], &timed[i], e, window, &mut table);
            }
            let overhead = (walls[2].raw_mean_ns / walls[0].raw_mean_ns
                + walls[3].raw_mean_ns / walls[1].raw_mean_ns)
                / 2.0;
            m.put("trace_overhead", overhead, "ratio");
            let _ = writeln!(table, "trace overhead: {overhead:.3}x wall time per op");
            eprint!("{table}");
            write_trace(a, &cells, &table).map_err(|e| format!("writing the trace: {e}"))?;
        }
    }
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    for (c, wl) in cells.iter().zip(&walls) {
        eprintln!(
            "{}{}: {} timed ops, p50 {:.2} us, p99 {:.2} us, {:.0} ops/s (raw wall p50 {:.2} us, machine slowness {:.3})",
            c.stack(),
            if c.tracer().is_some() { " (traced)" } else { "" },
            wl.ops,
            wl.p50_us,
            wl.p99_us,
            wl.ops_per_s,
            wl.raw_p50_us,
            wl.slowness
        );
    }
    drop_cells(cells);
    Ok((problems.is_empty(), attempted, failed, m))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, m)) => {
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
                attempted.max(1),
                m.json()
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
