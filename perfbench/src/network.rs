//! `network`: a closed loop of whole-network inferences through
//! `Network::run`, alternating a 5-layer LeNet and a depthwise-separable
//! MobileNet block. One operation is one inference of each.
//!
//! The traced group replays each inference layer by layer through the
//! calls `Network::run` makes — testbench build, stage, disarmed
//! `faultsim::run_armed`, collect — plus a separate golden-model call,
//! one span each.

use crate::report::{Gate, Metrics};
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;
use crate::window::{closed_loop, closed_loop_metrics};
use crate::{derive, Size};
use std::cell::{Cell, RefCell};
use std::time::Instant;
use xpulpnn::faultsim::{run_armed, ArmConfig, FaultPlan};
use xpulpnn::network::{Layer, Network, NetworkRun};
use xpulpnn::pulp_kernels::depthwise::{DepthwiseKernelConfig, DepthwiseTestbench};
use xpulpnn::pulp_kernels::linear::{LinearKernelConfig, LinearTestbench};
use xpulpnn::pulp_kernels::pool::{PoolKernelConfig, PoolOp, PoolTestbench};
use xpulpnn::pulp_soc::{RunReport, Soc};
use xpulpnn::qnn::conv::ConvShape;
use xpulpnn::qnn::depthwise::DepthwiseShape;
use xpulpnn::qnn::linear::LinearShape;
use xpulpnn::qnn::pool::PoolShape;
use xpulpnn::qnn::rng::TensorRng;
use xpulpnn::qnn::tensor::QuantTensor;
use xpulpnn::riscv_core::CycleLedger;
use xpulpnn::{BitWidth, ConvKernelConfig, ConvTestbench, QuantMode};

/// Exact simulated cycles of one LeNet inference (any input).
pub const LENET_CYCLES: u64 = 350_760;
/// Exact simulated cycles of one MobileNet-block inference.
pub const MBBLOCK_CYCLES: u64 = 326_872;

/// The ledger classes reported per network pair (the eight largest).
pub const LEDGER_CLASSES: [&str; 8] = [
    "load", "dotp.b", "alu", "qnt", "branch", "dotp.n", "mul", "store",
];

/// The two networks, with their names and cycle pins.
pub fn networks() -> [(&'static str, Network, u64); 2] {
    let conv = |in_h, in_c, out_c, k: usize, pad| ConvShape {
        in_h,
        in_w: in_h,
        in_c,
        out_c,
        k_h: k,
        k_w: k,
        stride: 1,
        pad,
    };
    let pool = |in_h, c| PoolShape {
        in_h,
        in_w: in_h,
        c,
        k: 2,
        stride: 2,
    };
    let lenet = Network::new(vec![
        Layer::conv(conv(16, 8, 16, 3, 1), BitWidth::W8, BitWidth::W4),
        Layer::maxpool(pool(16, 16), BitWidth::W4),
        Layer::conv(conv(8, 16, 32, 3, 1), BitWidth::W4, BitWidth::W4),
        Layer::maxpool(pool(8, 32), BitWidth::W4),
        Layer::linear(
            LinearShape {
                in_features: 4 * 4 * 32,
                out_features: 20,
            },
            BitWidth::W4,
        ),
    ])
    .expect("consistent LeNet description");
    let mbblock = Network::new(vec![
        Layer::depthwise(DepthwiseShape {
            in_h: 16,
            in_w: 16,
            c: 16,
            k: 3,
            stride: 1,
            pad: 1,
        }),
        Layer::conv(conv(16, 16, 32, 1, 0), BitWidth::W8, BitWidth::W4),
    ])
    .expect("consistent MobileNet-block description");
    [
        ("lenet", lenet, LENET_CYCLES),
        ("mbblock", mbblock, MBBLOCK_CYCLES),
    ]
}

/// Input seed of inference `i` of network `k`.
fn input_seed(seed: u64, i: u64, k: usize) -> u64 {
    derive(seed, 2 * i + k as u64)
}

fn check_run(
    gate: &mut Gate,
    name: &str,
    run: &Result<NetworkRun, xpulpnn::network::NetworkError>,
    pin: u64,
) {
    let ok = run
        .as_ref()
        .is_ok_and(|r| r.fully_on_device() && r.total_cycles() == pin);
    gate.check(ok, || match run {
        Ok(r) => format!(
            "network {name}: {} cycles (pin {pin}), {} degraded layer(s)",
            r.total_cycles(),
            r.degraded_layers()
        ),
        Err(e) => format!("network {name}: {e}"),
    });
}

/// One operation: an inference of each network. Returns the runs.
fn pair(
    nets: &[(&'static str, Network, u64); 2],
    seed: u64,
    i: u64,
    gate: &mut Gate,
) -> Vec<NetworkRun> {
    let mut runs = Vec::with_capacity(2);
    for (k, (name, net, pin)) in nets.iter().enumerate() {
        let run = net.run(input_seed(seed, i, k));
        check_run(gate, name, &run, *pin);
        runs.extend(run.ok());
    }
    runs
}

/// The untraced run: end-to-end metrics of `network`. Each window's
/// set-up builds both networks and runs one inference of each.
pub fn run(seed: u64, size: Size, gate: &mut Gate) -> Metrics {
    let (g, i) = (RefCell::new(Gate::default()), Cell::new(0u64));
    let next = || {
        i.set(i.get() + 1);
        i.get()
    };
    let l = closed_loop(
        size.seconds,
        || {
            let nets = networks();
            pair(&nets, seed, next(), &mut g.borrow_mut());
            nets
        },
        |nets| {
            pair(nets, seed, next(), &mut g.borrow_mut());
        },
    );
    gate.merge(g.into_inner());
    let macs = networks()
        .iter()
        .flat_map(|(_, n, _)| n.layers().iter().map(Layer::macs))
        .sum();
    closed_loop_metrics(&l, LENET_CYCLES + MBBLOCK_CYCLES, macs)
}

/// A built layer and the activations it consumes.
enum Bench {
    Conv(Box<ConvTestbench>),
    Depthwise(Box<DepthwiseTestbench>, Vec<i16>),
    Pool(Box<PoolTestbench>, Vec<i16>),
    Linear(Box<LinearTestbench>, Vec<i16>),
}

/// Every layer `Network::run` accepted builds again in the replay.
const BUILDS: &str = "the layer builds, as it did in Network::run";

/// Builds one layer's testbench exactly as `Network::run` does (same
/// draw order from the shared tensor generator, same fixed seeds).
fn build(layer: &Layer, input: QuantTensor, rng: &mut TensorRng) -> Bench {
    match *layer {
        Layer::Conv {
            shape,
            bits,
            out_bits,
        } => {
            let cfg = ConvKernelConfig::mixed(shape, bits, out_bits);
            let weights = rng.weights(bits, shape.weight_len());
            let thresholds = out_bits
                .is_sub_byte()
                .then(|| rng.thresholds(out_bits, shape.out_c, -1800, 1800));
            Bench::Conv(Box::new(
                ConvTestbench::from_parts(cfg, input, weights, thresholds).expect(BUILDS),
            ))
        }
        Layer::Depthwise { shape, shift } => Bench::Depthwise(
            Box::new(
                DepthwiseTestbench::new(DepthwiseKernelConfig { shape, shift }, 1234)
                    .expect(BUILDS),
            ),
            input.values().to_vec(),
        ),
        Layer::MaxPool { shape, bits } => {
            let cfg = PoolKernelConfig {
                shape,
                bits,
                op: PoolOp::Max,
                simd: true,
            };
            Bench::Pool(
                Box::new(PoolTestbench::new(cfg, 1234).expect(BUILDS)),
                input.values().to_vec(),
            )
        }
        Layer::Linear { shape, bits } => {
            let quant = match bits {
                BitWidth::W8 => QuantMode::Shift8 { shift: 8 },
                _ => QuantMode::HardwareQnt,
            };
            let cfg = LinearKernelConfig { shape, bits, quant };
            Bench::Linear(
                Box::new(LinearTestbench::new(cfg, 1234).expect(BUILDS)),
                input.values().to_vec(),
            )
        }
    }
}

impl Bench {
    fn stage(&self) -> Soc {
        let staged = match self {
            Bench::Conv(tb) => Ok(tb.stage()),
            Bench::Depthwise(tb, x) => tb.stage_with_input(x),
            Bench::Pool(tb, x) => tb.stage_with_input(x),
            Bench::Linear(tb, x) => tb.stage_with_input(x),
        };
        staged.expect("inputs are shape-valid by construction")
    }

    fn budget(&self) -> u64 {
        match self {
            Bench::Conv(tb) => tb.cycle_budget(),
            Bench::Depthwise(tb, _) => tb.cycle_budget(),
            Bench::Pool(tb, _) => tb.cycle_budget(),
            Bench::Linear(tb, _) => tb.cycle_budget(),
        }
    }

    /// `(output, matches golden)` of a finished run.
    fn collect(&self, soc: &Soc, report: RunReport) -> (Vec<i16>, bool) {
        match self {
            Bench::Conv(tb) => {
                let r = tb.collect(soc, report);
                let ok = r.matches();
                (r.output, ok)
            }
            Bench::Depthwise(tb, x) => {
                let r = tb.collect(soc, report, x);
                let ok = r.matches();
                (r.output, ok)
            }
            Bench::Pool(tb, x) => {
                let r = tb.collect(soc, report, x);
                let ok = r.matches();
                (r.output, ok)
            }
            Bench::Linear(tb, x) => {
                let r = tb.collect(soc, report, x);
                let ok = r.matches();
                (r.output, ok)
            }
        }
    }

    fn golden(&self) -> Vec<i16> {
        match self {
            Bench::Conv(tb) => tb.golden(),
            Bench::Depthwise(tb, x) => tb.golden(x),
            Bench::Pool(tb, x) => tb.golden(x),
            Bench::Linear(tb, x) => tb.golden(x),
        }
    }
}

/// What one replayed inference produced.
struct Replayed {
    layer_cycles: Vec<u64>,
    output: Vec<i16>,
    ledger: CycleLedger,
}

/// Replays `Network::run(seed)` layer by layer with one span per call.
fn replay(net: &Network, seed: u64, id: u64, tr: &mut Tracer, gate: &mut Gate) -> Replayed {
    let mut rng = TensorRng::new(seed);
    let (in_len, in_bits) = net.layers()[0].input_spec();
    let mut activations = rng.activations(in_bits, in_len);
    let mut out = Replayed {
        layer_cycles: Vec::new(),
        output: Vec::new(),
        ledger: CycleLedger::new(),
    };
    let op = tr.begin("net.inference", id);
    for layer in net.layers() {
        let bench = tr.span("net.build", id, || {
            build(layer, activations.clone(), &mut rng)
        });
        let mut soc = tr.span("net.stage", id, || bench.stage());
        let budget = bench.budget();
        let armed = tr.span("net.exec", id, || {
            run_armed(
                &mut soc,
                &FaultPlan::none(),
                &ArmConfig {
                    budget,
                    checkpoint_interval: budget,
                    trace_depth: 64,
                },
            )
        });
        let Ok(exit) = armed.exit else {
            gate.check(false, || {
                format!("network replay: {} trapped", layer.describe())
            });
            break;
        };
        let report = RunReport {
            exit,
            perf: armed.perf,
        };
        let (output, matches) = tr.span("net.collect", id, || bench.collect(&soc, report));
        let golden = tr.span("net.golden", id, || bench.golden());
        gate.check(matches && output == golden, || {
            format!("network replay: {} diverged from golden", layer.describe())
        });
        out.layer_cycles.push(armed.perf.cycles);
        for (class, cycles) in armed.perf.ledger.entries() {
            out.ledger.charge(class, cycles);
        }
        let (_, out_bits) = layer.output_spec();
        activations =
            QuantTensor::activations(out_bits, output).expect("verified outputs are in range");
    }
    tr.end(op);
    out.output = activations.values().to_vec();
    out
}

/// The traced group: alternates an untraced `Network::run` pair, an
/// untraced and a traced replay of the same pair, and single-layer
/// networks of every layer, until `size.seconds`.
pub fn traced(seed: u64, size: Size, tr: &mut Tracer, gate: &mut Gate) -> Metrics {
    let nets = networks();
    let singles: Vec<Vec<Network>> = nets
        .iter()
        .map(|(_, n, _)| {
            n.layers()
                .iter()
                .map(|l| Network::new(vec![*l]).expect("a single layer is consistent"))
                .collect()
        })
        .collect();
    let mut single_ms: Vec<Vec<Vec<f64>>> =
        singles.iter().map(|s| vec![Vec::new(); s.len()]).collect();
    let (mut pair_s, mut plain_s, mut traced_s) = (Vec::new(), 0.0, 0.0);
    let (mut degraded, mut inferences) = (0usize, 0u64);
    let mut runs: Vec<NetworkRun> = Vec::new();
    let mut ledger = CycleLedger::new();
    let (mut cycles, mut iters) = (0u64, 0u64);

    let t = Instant::now();
    while iters == 0 || t.elapsed().as_secs_f64() < size.seconds {
        let start = Instant::now();
        runs = pair(&nets, seed, iters, gate);
        pair_s.push(start.elapsed().as_secs_f64());
        degraded += runs.iter().map(NetworkRun::degraded_layers).sum::<usize>();

        for (k, ((_, net, _), run)) in nets.iter().zip(&runs).enumerate() {
            let s = input_seed(seed, iters, k);
            let start = Instant::now();
            replay(net, s, inferences, &mut Tracer::new(false), gate);
            plain_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let r = replay(net, s, inferences, tr, gate);
            traced_s += start.elapsed().as_secs_f64();
            inferences += 1;
            let want: Vec<u64> = run.layers.iter().map(|l| l.cycles).collect();
            gate.check(
                r.layer_cycles == want && r.output == run.output.values(),
                || "network replay: differs from Network::run".to_string(),
            );
            cycles += r.layer_cycles.iter().sum::<u64>();
            if iters == 0 {
                for (class, c) in r.ledger.entries() {
                    ledger.charge(class, c);
                }
            }
        }
        for (k, layers) in singles.iter().enumerate() {
            for (i, net) in layers.iter().enumerate() {
                let start = Instant::now();
                let ok = net
                    .run(input_seed(seed, iters, k))
                    .is_ok_and(|r| r.fully_on_device());
                single_ms[k][i].push(start.elapsed().as_secs_f64() * 1e3);
                gate.check(ok, || {
                    format!(
                        "network {}: layer {} alone did not verify",
                        nets[k].0,
                        i + 1
                    )
                });
            }
        }
        iters += 1;
    }

    let totals = tr.totals();
    let per_inf = |name: &str| {
        ratio(
            totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3),
            inferences as f64,
        )
    };
    let exec_s = totals
        .get("net.exec")
        .map_or(0.0, |t| t.total_ns as f64 / 1e9);

    let mut m = Metrics::default();
    m.put("net.build_us", per_inf("net.build"), "us");
    m.put("net.stage_us", per_inf("net.stage"), "us");
    m.put("net.exec_us", per_inf("net.exec"), "us");
    m.put(
        "net.exec_mcps",
        ratio(cycles as f64, exec_s) / 1e6,
        "Mcycles/s",
    );
    m.put("net.collect_us", per_inf("net.collect"), "us");
    m.put("net.golden_us", per_inf("net.golden"), "us");
    for (k, ((name, _, _), run)) in nets.iter().zip(&runs).enumerate() {
        for (i, l) in run.layers.iter().enumerate() {
            let p = format!("net.{name}.L{}", i + 1);
            m.put(format!("{p}.host_ms"), median(&single_ms[k][i]), "ms");
            m.put(format!("{p}.sim_cycles"), l.cycles as f64, "cycles");
            m.put(
                format!("{p}.macs_per_cycle"),
                ratio(l.macs as f64, l.cycles as f64),
                "MAC/cycle",
            );
        }
    }
    m.put_ledger("net", &LEDGER_CLASSES, &ledger);
    m.put("net.p90_ms", percentile(&pair_s, 90.0) * 1e3, "ms");
    m.put("net.degraded_layers", degraded as f64, "count");
    m.put(
        "net.trace_overhead_frac",
        ratio(traced_s, plain_s) - 1.0,
        "ratio",
    );
    m.put(
        "net.attributed_frac",
        tr.attributed_frac("net.inference"),
        "ratio",
    );
    m
}
