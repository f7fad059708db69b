//! `serve-mix`: the seeded `serve::generate_requests` stream through a
//! one-worker `ServePool`.
//!
//! Phase A submits the stream saturated (bounded-wait submits) and
//! gives throughput. Phase B replays it open loop, one request due
//! every `1/RATE` seconds, and times every request from its due time.
//! Evenly spaced arrivals keep a seed's latency free of the burst
//! pattern a random arrival schedule would add. The traced group replays the same stream single-threaded
//! through the `WorkerTemplate` calls a worker makes, one span each.

use crate::report::{Gate, Metrics};
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;
use crate::window::{log_windows, slow_time, warm, SETUPS};
use crate::{derive, Size};
use std::time::{Duration, Instant};
use xpulpnn::pulp_soc::Soc;
use xpulpnn::serve::{
    digest, generate_requests, serving_config, Outcome, PoolConfig, Request, Response, ServePool,
    Variant, WorkerTemplate,
};

/// Phase-B arrival rate, requests per second: about a sixth of the
/// one-worker capacity (about 3,000 req/s on a 2-vCPU host). At
/// 1,000 req/s host stalls backed the queue up for most of some runs,
/// and the run-wide median latency of five identical runs spread by
/// twice its median; at 2,000 req/s one run's median reached 15 ms.
const RATE: f64 = 500.0;
/// Due times per phase-B window of the stderr series (one second at
/// [`RATE`]).
const B_WINDOW: usize = 500;
/// Share of a run spent in phase A; phase B gets the rest, since its
/// latency median needs more samples to settle.
const PHASE_A: f64 = 0.3;
/// Upper bound on one submit's wait for queue space.
const SUBMIT_BOUND: Duration = Duration::from_secs(30);
/// The open-loop generator sleeps until this close to a due time, then
/// spins, so oversleeping does not show up as request latency.
const SPIN: Duration = Duration::from_micros(150);

/// The request stream plus what every response must equal.
struct Stream {
    reqs: Vec<Request>,
    golden: Vec<Vec<i16>>,
}

fn start_pool() -> ServePool {
    ServePool::start(PoolConfig {
        workers: 1,
        ..PoolConfig::default()
    })
    .expect("the serving templates build and pass their health check")
}

/// Times [`SETUPS`] `ServePool::start` calls, each pool shut down
/// untimed, and returns their median.
fn time_setup() -> f64 {
    let times: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            let pool = start_pool();
            let secs = t.elapsed().as_secs_f64();
            pool.shutdown();
            secs
        })
        .collect();
    median(&times)
}

fn stream(pool: &ServePool, seed: u64, n: u64) -> Stream {
    let reqs = generate_requests(derive(seed, 1), n);
    let golden = reqs
        .iter()
        .map(|r| pool.template(r.variant).golden(&r.input))
        .collect();
    Stream { reqs, golden }
}

/// Checks one pass: a response per request, each served on the device
/// and equal to its golden output.
fn check_pass(gate: &mut Gate, s: &Stream, responses: &[Response]) {
    gate.check(responses.len() == s.reqs.len(), || {
        format!(
            "serve: {} responses for {} requests",
            responses.len(),
            s.reqs.len()
        )
    });
    for r in responses {
        let want = s.golden.get(r.id as usize);
        gate.check(r.outcome == Outcome::Ok && want == Some(&r.output), || {
            format!(
                "serve: request {} {} outcome {}",
                r.id,
                r.variant,
                r.outcome.label()
            )
        });
    }
}

/// Saturated pass: submits the whole stream with bounded waits and
/// waits for every response. Returns the responses and the wall time.
fn saturated_pass(pool: &ServePool, s: &Stream) -> (Vec<Response>, f64) {
    let batch = s.reqs.clone();
    let done = pool.completed() as u64 + batch.len() as u64;
    let t = Instant::now();
    for r in batch {
        pool.submit_timeout(r, SUBMIT_BOUND)
            .expect("generated requests are valid and a live pool drains");
    }
    pool.wait_completed(done);
    let secs = t.elapsed().as_secs_f64();
    (pool.drain_responses(), secs)
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One open-loop pass, request `i` due `i / RATE` seconds after the
/// start. Returns the responses, and per request id its latency from
/// the due time and how late the generator submitted it (both µs).
fn open_pass(pool: &ServePool, s: &Stream) -> (Vec<Response>, Vec<f64>, Vec<f64>) {
    let batch = s.reqs.clone();
    let n = batch.len();
    let done = pool.completed() as u64 + n as u64;
    let mut late = vec![0.0; n];
    let mut due = Instant::now() + Duration::from_millis(1);
    let gap = Duration::from_secs_f64(1.0 / RATE);
    for r in batch {
        due += gap;
        wait_until(due);
        let id = r.id as usize;
        late[id] = due.elapsed().as_secs_f64() * 1e6;
        pool.submit_timeout(r, SUBMIT_BOUND)
            .expect("generated requests are valid and a live pool drains");
    }
    pool.wait_completed(done);
    let responses = pool.drain_responses();
    let mut latency = vec![0.0; n];
    for r in &responses {
        if let Some(l) = latency.get_mut(r.id as usize) {
            *l = late[r.id as usize] + r.host_us as f64;
        }
    }
    (responses, latency, late)
}

fn sim_totals(s: &Stream, responses: &[Response]) -> (u64, u64) {
    let cycles = responses.iter().map(|r| r.cycles).sum();
    let macs = s
        .reqs
        .iter()
        .map(|r| serving_config(r.variant).shape.macs())
        .sum();
    (cycles, macs)
}

/// The untraced run: end-to-end metrics of `serve-mix`. Each pass of
/// the stream has its own set-up sample, and the first pass of each
/// phase warms up. `setup_s` is the slow-decile set-up sample, as in
/// the closed loops (see [`crate::window`]). The other host metrics
/// are medians over phase-A passes and over every phase-B request,
/// not slow-decile windows: the open loop turns a host stall into a
/// backlog, so its slowest windows time the stall.
pub fn run(seed: u64, size: Size, gate: &mut Gate) -> Metrics {
    let pool = start_pool();
    let s = stream(&pool, seed, size.stream);
    let mut reference: Option<u64> = None;
    let mut check = |gate: &mut Gate, responses: &[Response]| {
        check_pass(gate, &s, responses);
        let d = digest(responses);
        let want = *reference.get_or_insert(d);
        gate.check(d == want, || {
            format!("serve: digest {d:016x} != {want:016x}")
        });
    };
    let mut setups = Vec::new();

    // Phase A: saturated; each pass of the stream is one throughput
    // sample.
    let (mut rates, mut mcps, mut cycles, mut macs) = (Vec::new(), Vec::new(), 0, 0);
    let t = Instant::now();
    while rates.len() < 2 || t.elapsed().as_secs_f64() < PHASE_A * size.seconds {
        setups.push(time_setup());
        let (responses, secs) = saturated_pass(&pool, &s);
        check(gate, &responses);
        (cycles, macs) = sim_totals(&s, &responses);
        rates.push(responses.len() as f64 / secs);
        mcps.push(cycles as f64 / secs / 1e6);
    }

    // Phase B: open loop, latency from due times. The first pass warms
    // up.
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let t = Instant::now();
    while passes.len() < 2 || t.elapsed().as_secs_f64() < (1.0 - PHASE_A) * size.seconds {
        setups.push(time_setup());
        let (responses, latency, _) = open_pass(&pool, &s);
        check(gate, &responses);
        passes.push(latency);
    }
    pool.shutdown();
    let (setups, rates, mcps) = (warm(&setups), warm(&rates), warm(&mcps));
    let latency = warm(&passes).concat();
    let window_p50: Vec<f64> = latency.chunks(B_WINDOW).map(median).collect();
    for (name, series) in [
        ("setup_s", setups),
        ("ops_per_s", rates),
        ("host_mcps", mcps),
        ("p50_us", &window_p50[..]),
    ] {
        log_windows(name, series);
    }

    let mut m = Metrics::default();
    m.put("setup_s", slow_time(setups), "s");
    m.put("ops_per_s", median(rates), "1/s");
    m.put("p50_ms", median(&latency) / 1e3, "ms");
    m.put("host_mcps", median(mcps), "Mcycles/s");
    m.put(
        "sim_cycles",
        ratio(cycles as f64, s.reqs.len() as f64),
        "cycles",
    );
    m.put(
        "macs_per_cycle",
        ratio(macs as f64, cycles as f64),
        "MAC/cycle",
    );
    m
}

/// A worker machine in the single-threaded replay.
struct Machine {
    soc: Soc,
    variant: Variant,
}

/// What one replay pass measured.
struct Replay {
    /// Host time per request id, ns (span-free wall clock).
    service_ns: Vec<u64>,
    cycles: u64,
    translations: u64,
    hits: u64,
    lookups: u64,
}

/// Replays the stream in order through the calls a one-worker pool
/// makes: verify + fork/refork on a cold fork (a variant change),
/// rearm on a warm rerun, then stage, `Soc::run`, collect and golden.
fn replay(
    s: &Stream,
    templates: &[std::sync::Arc<WorkerTemplate>],
    tr: &mut Tracer,
    gate: &mut Gate,
) -> Replay {
    let mut out = Replay {
        service_ns: vec![0; s.reqs.len()],
        cycles: 0,
        translations: 0,
        hits: 0,
        lookups: 0,
    };
    let mut machine: Option<Machine> = None;
    for r in &s.reqs {
        let id = r.id;
        let t = &templates[r.variant.index()];
        let start = Instant::now();
        let op = tr.begin("serve.request", id);
        let mut m = match machine.take() {
            Some(mut m) if m.variant == r.variant => {
                tr.span("serve.stage", id, || {
                    t.rearm_entry(&mut m.soc);
                    t.stage_input(&mut m.soc, &r.input);
                });
                m
            }
            old => {
                let ok = tr.span("serve.verify", id, || t.verify().is_ok());
                gate.check(ok, || {
                    format!("serve replay: template {} failed verify", r.variant)
                });
                let soc = tr.span("serve.fork", id, || match old {
                    Some(mut m) => {
                        t.refork(&mut m.soc);
                        m.soc
                    }
                    None => t.fork(),
                });
                let mut m = Machine {
                    soc,
                    variant: r.variant,
                };
                tr.span("serve.stage", id, || t.stage_input(&mut m.soc, &r.input));
                m
            }
        };
        let before = m.soc.core.fastpath_stats().unwrap_or_default();
        let report = tr.span("serve.exec", id, || m.soc.run(t.budget()));
        let after = m.soc.core.fastpath_stats().unwrap_or_default();
        let output = tr.span("serve.collect", id, || t.collect_output(&m.soc));
        let golden = tr.span("serve.golden", id, || t.golden(&r.input));
        tr.end(op);
        out.service_ns[id as usize] = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);

        out.cycles += report.as_ref().map_or(0, |rep| rep.perf.cycles);
        out.translations += after.translations - before.translations;
        out.hits += after.hits - before.hits;
        out.lookups += (after.hits + after.misses + after.interp_fallbacks)
            - (before.hits + before.misses + before.interp_fallbacks);
        gate.check(
            report.is_ok() && output == golden && Some(&output) == s.golden.get(id as usize),
            || format!("serve replay: request {id} diverged from golden"),
        );
        machine = Some(m);
    }
    out
}

/// The traced group: one open-loop pass through the pool (queue wait,
/// generator lateness, cold-fork share), then untraced and traced
/// replays of the same stream, alternated until `size.seconds`.
pub fn traced(seed: u64, size: Size, tr: &mut Tracer, gate: &mut Gate) -> Metrics {
    let pool = start_pool();
    let s = stream(&pool, seed, size.stream);
    let (responses, latency, late) = open_pass(&pool, &s);
    check_pass(gate, &s, &responses);
    let stats = pool.stats();
    let templates: Vec<_> = Variant::ALL.iter().map(|&v| pool.template(v)).collect();
    pool.shutdown();

    let n = s.reqs.len() as f64;
    let (mut plain_ns, mut traced_ns, mut passes) = (0u64, 0u64, 0u64);
    let mut last: Option<Replay> = None;
    let t = Instant::now();
    while passes == 0 || t.elapsed().as_secs_f64() < size.seconds {
        let untraced = replay(&s, &templates, &mut Tracer::new(false), gate);
        plain_ns += untraced.service_ns.iter().sum::<u64>();
        let traced = replay(&s, &templates, tr, gate);
        traced_ns += traced.service_ns.iter().sum::<u64>();
        passes += 1;
        // Service times from the untraced replay, counters from either
        // (they are exact and identical).
        last = Some(Replay {
            service_ns: untraced.service_ns,
            ..traced
        });
    }
    let r = last.expect("at least one replay pass");

    let totals = tr.totals();
    let per_req = |name: &str| {
        ratio(
            totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3),
            n * passes as f64,
        )
    };
    let mean_of = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_us());
    let exec_s = totals
        .get("serve.exec")
        .map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let queue_wait: Vec<f64> = latency
        .iter()
        .zip(&r.service_ns)
        .map(|(l, svc)| l - *svc as f64 / 1e3)
        .collect();

    let mut m = Metrics::default();
    m.put("serve.verify_us", mean_of("serve.verify"), "us");
    m.put("serve.fork_us", mean_of("serve.fork"), "us");
    m.put("serve.stage_us", per_req("serve.stage"), "us");
    m.put("serve.exec_us", per_req("serve.exec"), "us");
    m.put(
        "serve.exec_mcps",
        ratio(r.cycles as f64 * passes as f64, exec_s) / 1e6,
        "Mcycles/s",
    );
    m.put("serve.collect_us", per_req("serve.collect"), "us");
    m.put("serve.golden_us", per_req("serve.golden"), "us");
    m.put(
        "serve.cold_fork_ratio",
        ratio(stats.cold_forks as f64, stats.served as f64),
        "ratio",
    );
    m.put(
        "serve.blocks_translated_per_req",
        r.translations as f64 / n,
        "count",
    );
    m.put(
        "serve.block_hit_rate",
        ratio(r.hits as f64, r.lookups as f64),
        "ratio",
    );
    m.put("serve.queue_wait_us", median(&queue_wait), "us");
    m.put("serve.p90_ms", percentile(&latency, 90.0) / 1e3, "ms");
    m.put("serve.gen_late_p50_us", percentile(&late, 50.0), "us");
    m.put("serve.gen_late_p90_us", percentile(&late, 90.0), "us");
    m.put(
        "serve.trace_overhead_frac",
        ratio(traced_ns as f64, plain_ns as f64) - 1.0,
        "ratio",
    );
    m.put(
        "serve.attributed_frac",
        tr.attributed_frac("serve.request"),
        "ratio",
    );
    m
}
