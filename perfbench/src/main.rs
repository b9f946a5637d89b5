//! The WmXML benchmark: the DOM, stream and parallel-stream engines timed
//! end to end (bytes in, marked bytes or a verdict out) and, in a
//! separate traced run, layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pubs-small-records --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a readable table goes
//! to standard error. README.md lists the workloads, the metrics and the
//! layer each metric belongs to.

#![deny(unsafe_code)]

mod inputs;
mod ops;
mod stats;
mod trace;

use inputs::{Inputs, Workload};
use ops::{Checks, Engine, Op, Output};
use stats::{median, Metrics};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Input builds per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Timed rounds run even when `--seconds` has already passed.
const MIN_ROUNDS: usize = 3;

/// Workers of the parallel operations in the untraced run. With one
/// worker per core, a call stalls whenever a neighbour on a shared host
/// takes any core, and run-to-run spread exceeds the bounds; one worker
/// times the parallel engine's whole code path (event collection,
/// fan-out, merge) as steadily as the sequential engine. The traced run
/// uses one worker per core for `par.speedup` and `par.chunk_skew`.
const UNTRACED_PAR_WORKERS: usize = 1;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Counts allocations while [`count_allocs`] runs. Outside it the only
/// cost is one relaxed load per allocation, so timed loops run with
/// counting off.
struct CountingAlloc;

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

fn note_free(size: usize) {
    LIVE.fetch_sub(size as i64, Relaxed);
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches
// atomics and never allocates, so it cannot re-enter the allocator.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is forwarded as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && COUNTING.load(Relaxed) {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is forwarded as received.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() && COUNTING.load(Relaxed) {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if COUNTING.load(Relaxed) {
            note_free(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() && COUNTING.load(Relaxed) {
            note_free(layout.size());
            note_alloc(new_size);
        }
        new_ptr
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation tally of one counted call, over every thread it ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocStats {
    pub count: u64,
    pub bytes: u64,
    /// Highest live heap above the level at the call's start, in bytes.
    pub peak: i64,
}

/// Runs `f` with allocation counting on.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
    ALLOCS.store(0, Relaxed);
    ALLOC_BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    let stats = AllocStats {
        count: ALLOCS.load(Relaxed),
        bytes: ALLOC_BYTES.load(Relaxed),
        peak: PEAK.load(Relaxed),
    };
    (out, stats)
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// The C library's id for the clock of the calling process's CPU time.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time used so far by every thread of this process, in seconds.
///
/// The untraced run times calls with this clock rather than the wall
/// clock. Each call is compute on in-memory data in one thread (the
/// one-worker parallel calls' main thread only waits for the join), so
/// on an idle host the two clocks agree. On a shared virtual machine
/// whose kernel accounts steal time (`CONFIG_PARAVIRT_TIME_ACCOUNTING`),
/// this clock stops while the hypervisor runs other guests on the vCPU,
/// which the wall clock counts as if the code were slower.
#[allow(unsafe_code)]
fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C
    // layout for the whole call, and the clock id is one the C library
    // defines, so `clock_gettime` writes only within `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value:?}; choose one of {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wmx-perfbench: {e}");
            eprintln!(
                "usage: wmx-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let workers = if args.trace {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        UNTRACED_PAR_WORKERS
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {} workers {workers}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut checks = Checks::default();
    let (inputs, setup_times) = setup(
        args.workload,
        args.seed,
        if args.trace { 1 } else { SETUP_REPEATS },
        &mut checks,
    );
    eprintln!(
        "inputs: {} records, {} stored queries, MB read per call: {}",
        inputs.records,
        inputs.queries.len(),
        Op::ALL
            .iter()
            .map(|op| format!("{} {:.2}", op.name(), op.input_bytes(&inputs) as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let allocs = warm_up(&inputs, workers, &mut checks);
    checks.check_unmarked(&inputs, workers);

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let metrics = if args.trace {
        trace::run(&inputs, workers, deadline, &allocs, &mut checks)
    } else {
        end_to_end(
            &inputs,
            workers,
            deadline,
            &setup_times,
            &allocs,
            &mut checks,
        )
    };

    for failure in checks.failures() {
        eprintln!("check failed: {failure}");
    }
    eprintln!(
        "checks: {} attempted, {} failed (failed_frac {})",
        checks.attempted,
        checks.failed,
        checks.failed as f64 / checks.attempted.max(1) as f64
    );
    eprint!("{}", metrics.table());
    println!("{}", metrics.result_line(&checks));
}

/// Builds the inputs `repeats` times from the same seed and checks the
/// builds agree byte for byte.
fn setup(workload: Workload, seed: u64, repeats: usize, checks: &mut Checks) -> (Inputs, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut kept: Option<Inputs> = None;
    for _ in 0..repeats {
        let start = cpu_seconds();
        let built = inputs::build(workload, seed);
        times.push(cpu_seconds() - start);
        match &kept {
            None => kept = Some(built),
            Some(first) => checks.check(same_bytes(first, &built), || {
                format!("two input builds from seed {seed} differ")
            }),
        }
    }
    (kept.expect("at least one build"), times)
}

fn same_bytes(a: &Inputs, b: &Inputs) -> bool {
    fn texts(i: &Inputs, op: Op) -> Vec<&str> {
        op.copies(i).iter().map(|c| c.text.as_str()).collect()
    }
    a.original == b.original
        && a.marked == b.marked
        && Op::ALL.iter().all(|&op| texts(a, op) == texts(b, op))
}

/// Runs every operation once with allocation counting on: the warm-up
/// before timing, and the source of `peak_heap_mb.*` and `alloc.*`.
/// `stream_embed` writes to a sink here, so its peak shows the engine's
/// own bounded footprint rather than an output buffer the caller chose.
fn warm_up(inputs: &Inputs, workers: usize, checks: &mut Checks) -> Vec<AllocStats> {
    Op::ALL
        .iter()
        .map(|&op| {
            if op == Op::StreamEmbed {
                let (result, stats) = count_allocs(|| {
                    wmx_stream::stream_embed(
                        inputs.original.as_bytes(),
                        std::io::sink(),
                        inputs.ctx(),
                        &inputs.key,
                        &inputs.watermark,
                    )
                });
                checks.check(result.is_ok(), || "stream_embed to a sink failed".into());
                stats
            } else {
                let (output, stats) = count_allocs(|| op.run(inputs, workers));
                checks.check_output(op, inputs, &output);
                stats
            }
        })
        .collect()
}

/// The untraced run: every operation in turn, round after round, until
/// the deadline. Rounds start at a rotating operation so no operation
/// always follows the same neighbour. Calls are timed by the process CPU
/// clock ([`cpu_seconds`]), and throughput comes from the median call:
/// on a shared host a call runs at one of two speeds, depending on
/// whether a neighbour shares its core at that moment, so the fastest
/// call depends on luck while the median follows the typical load.
fn end_to_end(
    inputs: &Inputs,
    workers: usize,
    deadline: Instant,
    setup_times: &[f64],
    allocs: &[AllocStats],
    checks: &mut Checks,
) -> Metrics {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); Op::ALL.len()];
    let mut round = 0usize;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        for k in 0..Op::ALL.len() {
            let i = (round + k) % Op::ALL.len();
            let op = Op::ALL[i];
            let start = cpu_seconds();
            let output: Output = black_box(op.run(black_box(inputs), workers));
            samples[i].push(cpu_seconds() - start);
            checks.check_output(op, inputs, &output);
        }
        round += 1;
    }

    let mut m = Metrics::default();
    m.sampled(
        "setup_s",
        median(setup_times),
        "s",
        format!("median of {}", setup_times.len()),
    );
    for (i, op) in Op::ALL.iter().enumerate() {
        let mb = op.input_bytes(inputs) as f64 / 1e6;
        let times = &samples[i];
        m.sampled(
            &format!("{}_mb_s", op.name()),
            mb / median(times),
            "MB/s",
            format!("median of {}", times.len()),
        );
    }
    m.value(
        "match_frac",
        checks.min_match_frac.unwrap_or(0.0),
        "fraction",
    );
    for engine in Engine::ALL {
        let peak = Op::ALL
            .iter()
            .zip(allocs)
            .filter(|(op, _)| op.engine() == engine)
            .map(|(_, a)| a.peak)
            .max()
            .unwrap_or(0);
        m.value(
            &format!("peak_heap_mb.{}", engine.name()),
            peak as f64 / 1e6,
            "MB",
        );
    }
    m
}
