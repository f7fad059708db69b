//! Command parsing and execution (separated from `main` for testing).
//!
//! Every subcommand declares its flags once, in [`COMMANDS`]; one parser
//! ([`parse_args`]) checks an argument vector against that table, and
//! each `cmd_*` reads its options from the parsed [`Args`].

use std::fmt::{Debug, Write as _};
use std::ops::RangeBounds;
use std::path::Path;
use std::str::FromStr;
use xpulpnn::pulp_asm::text::parse;
use xpulpnn::pulp_isa::compressed::code_size_report;
use xpulpnn::pulp_isa::reg::ALL_REGS;
use xpulpnn::pulp_soc::Soc;
use xpulpnn::riscv_core::{IsaConfig, Trap};
use xpulpnn::{BitWidth, ConvKernelConfig, KernelIsa};

/// Usage text shown on errors.
pub const USAGE: &str = "\
usage:
  xpulpnn run <file.s> [--isa rv32im|xpulpv2|xpulpnn] [--backend simd|vector]
                [--vlen N] [--max-cycles N] [--trace] [--cores N]
      assemble and execute a program on the simulated SoC; --backend
      selects the compute core: simd is the paper's XpulpNN
      packed-SIMD machine (the default ISA), vector swaps in the Xrvv
      sub-byte vector unit (XpulpV2 scalar + vector, no pv.*), --vlen
      bits wide (a power of two in 32..256, default 128); with
      --cores N (2..8) the program runs SPMD on an N-hart cluster
      sharing the banked TCDM (each hart reads its id from mhartid)
  xpulpnn dis <file.s>
      assemble and print the listing with encodings
  xpulpnn codesize <file.s>
      report how much RV32C compression would shrink the program
  xpulpnn sweep [--seed N]
      run the paper's convolution benchmark matrix (Figs. 6/8 data)
  xpulpnn report [--seed N]
      regenerate every table and figure of the paper's evaluation
  xpulpnn profile [--bits 8|4|2] [--isa xpulpv2|xpulpnn] [--sw-quant]
                  [--seed N] [--top N]
      run one paper-layer kernel with the execution tracer attached and
      print a JSON cycle-attribution profile (per-class ledger + hottest
      instructions); defaults to the 4-bit XpulpNN kernel with pv.qnt
  xpulpnn cluster [--cores N] [--bits 8|4|2] [--isa xpulpv2|xpulpnn]
                  [--sw-quant] [--seed N] [--threads N]
      run the paper-layer convolution on an N-hart cluster (banked
      TCDM, event-unit barriers, double-buffered DMA), verify the
      output bit-exactly against the golden model and print cycles,
      speedup over the single-core SoC, the conflict/DMA breakdown and
      per-hart utilization; simulated cycles are independent of
      --threads (host parallelism)
  xpulpnn bench [--json] [--host] [--seed N] [--out DIR]
      benchmark the Fig. 8 4-bit layer on the seed single core, the
      8-core cluster and the Xrvv vector backend (VLEN 128); --json
      writes one BENCH_<label>.json artifact
      per configuration (cycles, MACs/cycle, stall/conflict breakdown,
      per-core utilization) instead of printing a table; --host instead
      benchmarks the *simulator* on this machine — the layer (SIMD, then
      Xrvv at VLEN 128) runs by uncached reference steps and again by
      decoded-block replay (verified bit-exact), and
      BENCH_host_throughput.json records simulated cycles/second for
      both, the speedup and the block-cache hit rate (vector keys carry
      a vector_ prefix), plus the SIMD layer through the fault-armed
      driver (armed_ keys) and under a 64-entry tracer (traced_ keys)
  xpulpnn lint [<file.s>] [--races [--cores N]]
      statically verify a program: CFG + hardware-loop legality,
      dataflow (uninitialized reads, dead stores, reserved-register
      clobbers), abstract interpretation over address arithmetic
      (region containment, SIMD alignment, pv.qnt threshold trees);
      with no file, lints every shipped kernel and every 8-hart
      parallel cluster kernel against the tensor regions its layout
      declares and fails on any diagnostic; --races instead runs the
      SPMD race verifier over the same kernels — per-hart abstract
      execution proves all N harts (default 8) write-disjoint within
      every barrier region (DRF-01..05: write/write overlap, unsynced
      read of a peer write, DMA band overlap, barrier protocol,
      dispatch-slab ownership) and fails on any finding
  xpulpnn conformance [--cases N] [--seed S] [--vector] [--crossval]
                      [--fastpath] [--races]
      differentially fuzz the cycle-approximate core against the
      independent reference interpreter on N random programs; on
      divergence, prints a shrunk repro and the exact replay command;
      --vector mixes the Xrvv vector instructions into the generated
      stream and lock-steps the vector unit too (registers, vl and
      SEW compared before every step, both cores at VLEN 128);
      --fastpath instead lock-steps decoded-block replay against
      uncached reference steps (PC, registers and perf counters
      compared every step) over the same corpus, shrinking any
      divergence;
      --crossval instead cross-validates the static analyzer: every
      generated program is linted and then executed with a dynamic
      uninit/out-of-bounds oracle (lint-clean programs must run
      trap-free, dynamic oracle hits must be caught statically or
      land in the recorded imprecision counters);
      --races instead cross-validates the static SPMD race verifier
      against the cluster merge's dynamic conflict detector: every
      shipped cluster variant on 1/2/4/8 harts must be clean on both
      sides, and injected races (tampered dispatch table, missing
      barrier, overlapping DMA band) must be caught by both at
      overlapping address ranges
  xpulpnn faults [--seed S] [--trials N] [--replay V:T]
                 [--cluster [--cores N]]
      run a seeded transient-fault campaign over the eight-kernel
      convolution matrix and print per-variant detected/masked/SDC
      rates (AVF); --replay re-runs one trial from its seed, restores
      the pre-fault checkpoint, and lock-steps faulted-vs-clean
      execution to pinpoint the first corrupted architectural state;
      --cluster runs the campaign on an N-hart cluster instead
      (faults strike per-hart register files and the shared TCDM)
  xpulpnn serve [--workers N] [--seed S] [--weight-seed S]
      bring up the inference-serving pool (N snapshot-forked SoC
      workers behind a bounded queue), serve one smoke request per
      kernel variant and print the per-variant template cost plus
      each response's outcome and cycle ledger
  xpulpnn loadgen [--seed S] [--requests N] [--workers N] [--batch N]
                  [--queue N] [--weight-seed S] [--faults SEED]
                  [--gap-us N] [--no-warm] [--out DIR]
      run a seeded open-loop load test against the serving pool:
      a deterministic request stream (mixed variants; --gap-us adds
      Poisson-ish arrival pacing) is served to completion, printing
      outcome counts, the scheduling-independent response digest,
      p50/p99 latency (simulated cycles and host µs) and sustained
      req/s, and writing the BENCH_serving.json artifact to --out;
      --faults arms one seeded transient fault per request (chaos
      mode), --no-warm disables warm same-variant reruns; the digest
      is a pure function of (seed, config) — identical across any
      worker count
  xpulpnn soak [--seed S] [--workers N] [--scale N] [--weight-seed S]
               [--out DIR]
      run the seeded multi-phase resilience campaign through the
      supervisor: overload burst (typed shedding at both watermarks),
      fault storm (deadlines, retry-with-backoff, circuit-breaker
      trips and golden fallback), hang injection (heartbeat reaps +
      re-forks), template corruption (checksum quarantine + rebuild),
      then recovery (half-open probes re-close every breaker);
      asserts zero lost requests and prints the resilience counters
      plus the scheduling-independent digest (identical across any
      worker count), writing BENCH_soak.json to --out; --scale sets
      the per-phase request count (8 phases of work, 8×scale requests)";

/// A user-facing CLI error, classified so the process exit code tells
/// scripts *what kind* of failure occurred.
#[derive(Debug, PartialEq, Eq)]
pub struct CliError {
    /// Message shown to the user.
    pub message: String,
    /// True for usage errors — a malformed flag or argument. `main`
    /// prints the USAGE text for these and exits with code 2; runtime
    /// failures (traps, divergences, lint findings, I/O) exit with 1.
    pub usage: bool,
}

impl CliError {
    /// Process exit code for this error: 2 for usage, 1 for runtime.
    pub fn exit_code(&self) -> u8 {
        if self.usage {
            2
        } else {
            1
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// A usage error: bad flags or arguments (exit code 2, USAGE shown).
fn err(msg: impl Into<String>) -> CliError {
    CliError {
        message: msg.into(),
        usage: true,
    }
}

/// A runtime failure: the arguments were fine, the work failed
/// (exit code 1, no USAGE dump burying the actual diagnostic).
fn fail(msg: impl std::fmt::Display) -> CliError {
    CliError {
        message: msg.to_string(),
        usage: false,
    }
}

/// One entry of a subcommand's table, spelled as in [`USAGE`]: `--trace`
/// is a switch, `--cores N` takes a value (`N` is its metavar) and
/// `<file.s>` is the one positional argument.
struct Flag {
    spec: &'static str,
    /// Value taken when the flag is absent; naming another flag takes
    /// that flag's value (`--threads` defaults to `--cores`).
    default: Option<&'static str>,
    /// The mode switch this flag is only valid with (`lint --races
    /// --cores N`).
    under: Option<&'static str>,
}

const fn flag(spec: &'static str) -> Flag {
    Flag {
        spec,
        default: None,
        under: None,
    }
}

impl Flag {
    const fn default(self, value: &'static str) -> Flag {
        Flag {
            default: Some(value),
            ..self
        }
    }

    const fn under(self, mode: &'static str) -> Flag {
        Flag {
            under: Some(mode),
            ..self
        }
    }

    fn name(&self) -> &'static str {
        self.spec.split(' ').next().unwrap_or_default()
    }

    fn metavar(&self) -> Option<&'static str> {
        self.spec.split_once(' ').map(|(_, metavar)| metavar)
    }
}

/// A subcommand: its flag table, the flags of which at most one may be
/// given, and the function that runs it.
struct Command {
    name: &'static str,
    run: fn(&Args) -> Result<String, CliError>,
    flags: &'static [Flag],
    exclusive: &'static [&'static str],
}

impl Command {
    const fn new(
        name: &'static str,
        run: fn(&Args) -> Result<String, CliError>,
        flags: &'static [Flag],
    ) -> Command {
        Command {
            name,
            run,
            flags,
            exclusive: &[],
        }
    }

    const fn exclusive(self, flags: &'static [&'static str]) -> Command {
        Command {
            exclusive: flags,
            ..self
        }
    }
}

/// Every subcommand's flags, declared once.
const COMMANDS: &[Command] = &[
    Command::new(
        "run",
        cmd_run,
        &[
            flag("<file.s>"),
            flag("--isa rv32im|xpulpv2|xpulpnn").default("xpulpnn"),
            flag("--backend simd|vector"),
            flag("--vlen N"),
            flag("--max-cycles N").default("100000000"),
            flag("--trace"),
            flag("--cores N").default("1"),
        ],
    )
    .exclusive(&["--isa", "--backend"]),
    Command::new("dis", cmd_dis, &[flag("<file.s>")]),
    Command::new("codesize", cmd_codesize, &[flag("<file.s>")]),
    Command::new("sweep", cmd_sweep, &[flag("--seed N").default("42")]),
    Command::new("report", cmd_report, &[flag("--seed N").default("42")]),
    Command::new(
        "profile",
        cmd_profile,
        &[
            flag("--bits 8|4|2").default("4"),
            flag("--isa xpulpv2|xpulpnn").default("xpulpnn"),
            flag("--sw-quant"),
            flag("--seed N").default("42"),
            flag("--top N").default("10"),
        ],
    ),
    Command::new(
        "cluster",
        cmd_cluster,
        &[
            flag("--cores N").default("8"),
            flag("--bits 8|4|2").default("4"),
            flag("--isa xpulpv2|xpulpnn").default("xpulpnn"),
            flag("--sw-quant"),
            flag("--seed N").default("42"),
            flag("--threads N").default("--cores"),
        ],
    ),
    Command::new(
        "bench",
        cmd_bench,
        &[
            flag("--json"),
            flag("--host"),
            flag("--seed N").default("42"),
            flag("--out DIR").default("."),
        ],
    )
    .exclusive(&["--json", "--host"]),
    Command::new(
        "lint",
        cmd_lint,
        &[
            flag("<file.s>"),
            flag("--races"),
            flag("--cores N").default("8").under("--races"),
        ],
    )
    .exclusive(&["--races", "<file.s>"]),
    Command::new(
        "conformance",
        cmd_conformance,
        &[
            flag("--cases N").default("1000"),
            flag("--seed S").default("1"),
            flag("--vector"),
            flag("--crossval"),
            flag("--fastpath"),
            flag("--races"),
        ],
    )
    .exclusive(&["--vector", "--crossval", "--fastpath", "--races"]),
    Command::new(
        "faults",
        cmd_faults,
        &[
            flag("--seed S").default("42"),
            flag("--trials N").default("25"),
            flag("--replay V:T"),
            flag("--cluster"),
            flag("--cores N").default("8").under("--cluster"),
        ],
    )
    .exclusive(&["--cluster", "--replay"]),
    Command::new(
        "serve",
        cmd_serve,
        &[
            flag("--workers N").default("2"),
            flag("--seed S").default("1"),
            flag("--weight-seed S").default("42"),
        ],
    ),
    // `loadgen` and `soak` take their defaults from the serving
    // library's configs.
    Command::new(
        "loadgen",
        cmd_loadgen,
        &[
            flag("--seed S"),
            flag("--requests N"),
            flag("--workers N"),
            flag("--batch N"),
            flag("--queue N"),
            flag("--weight-seed S"),
            flag("--faults SEED"),
            flag("--gap-us N"),
            flag("--no-warm"),
            flag("--out DIR").default("."),
        ],
    ),
    Command::new(
        "soak",
        cmd_soak,
        &[
            flag("--seed S"),
            flag("--workers N"),
            flag("--scale N"),
            flag("--weight-seed S"),
            flag("--out DIR").default("."),
        ],
    ),
];

/// A subcommand's arguments, checked against its table.
struct Args {
    cmd: &'static Command,
    /// Entries given, in command-line order, with their values (a switch
    /// or the positional holds its own argument); a repeated flag's last
    /// value wins.
    given: Vec<(&'static Flag, String)>,
}

/// Checks `args` against `cmd`'s table. Unknown flags, missing values, a
/// second positional, a flag outside its mode and two mutually exclusive
/// flags are usage errors.
fn parse_args(cmd: &'static Command, args: &[String]) -> Result<Args, CliError> {
    let mut p = Args {
        cmd,
        given: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let positional = !a.starts_with('-');
        let f = (cmd.flags.iter())
            .find(|f| (f.spec.starts_with('<') && positional) || f.name() == a)
            .ok_or_else(|| err(format!("unknown argument `{a}`")))?;
        if positional && p.has(f.spec) {
            return Err(err("multiple input files"));
        }
        let value = match f.metavar() {
            Some(metavar) => it
                .next()
                .ok_or_else(|| err(format!("{a} needs a value ({metavar})")))?,
            None => a,
        };
        p.given.push((f, value.clone()));
    }
    for (f, _) in &p.given {
        if let Some(mode) = f.under.filter(|mode| !p.has(mode)) {
            return Err(err(format!("{} requires {mode}", f.name())));
        }
    }
    let mut set = cmd.exclusive.iter().filter(|name| p.has(name));
    if let (Some(a), Some(b)) = (set.next(), set.next()) {
        return Err(err(format!("{a} and {b} are mutually exclusive")));
    }
    Ok(p)
}

impl Args {
    /// Whether the flag (or the positional, by its spec) was given.
    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(f, _)| f.name() == name)
    }

    /// The flag's last given value, else its declared default.
    fn value(&self, name: &str) -> Option<&str> {
        if let Some((_, v)) = self.given.iter().rev().find(|(f, _)| f.name() == name) {
            return Some(v);
        }
        match self.entry(name).default? {
            flag if flag.starts_with("--") => self.value(flag),
            default => Some(default),
        }
    }

    /// The value of a flag whose table entry declares a default.
    fn get(&self, name: &str) -> &str {
        self.value(name)
            .unwrap_or_else(|| panic!("`{} {name}` declares no default", self.cmd.name))
    }

    fn entry(&self, name: &str) -> &'static Flag {
        self.cmd
            .flags
            .iter()
            .find(|f| f.name() == name)
            .unwrap_or_else(|| panic!("`{name}` is not in the `{}` table", self.cmd.name))
    }

    /// The positional input file.
    fn file(&self) -> Result<&str, CliError> {
        self.value("<file.s>")
            .ok_or_else(|| err(format!("{} needs an input file", self.cmd.name)))
    }

    /// The flag as a number in `range`; the flag declares a default.
    fn num<T: FromStr + PartialOrd>(
        &self,
        name: &str,
        range: impl RangeBounds<T> + Debug,
    ) -> Result<T, CliError> {
        number(name, self.get(name), range)
    }

    /// The flag as a number in `range`, `None` when it is absent and
    /// declares no default.
    fn opt_num<T: FromStr + PartialOrd>(
        &self,
        name: &str,
        range: impl RangeBounds<T> + Debug,
    ) -> Result<Option<T>, CliError> {
        self.value(name).map(|v| number(name, v, range)).transpose()
    }

    /// The option the flag's value picks: `options` follow the order in
    /// which its metavar spells them (`--bits 8|4|2`). The flag declares
    /// a default or was given.
    fn choice<T: Copy>(&self, name: &str, options: &[T]) -> Result<T, CliError> {
        let want = self.entry(name).metavar().unwrap_or_default();
        let v = self.get(name);
        let i = want.split('|').position(|k| k == v);
        i.map(|i| options[i])
            .ok_or_else(|| err(format!("bad {name} `{v}` (want {want})")))
    }
}

/// `v`, the value of `name`, as a number in `range`.
fn number<T: FromStr + PartialOrd>(
    name: &str,
    v: &str,
    range: impl RangeBounds<T> + Debug,
) -> Result<T, CliError> {
    match v.parse() {
        Ok(n) if range.contains(&n) => Ok(n),
        Ok(_) => Err(err(format!("bad {name} `{v}` (want {range:?})"))),
        Err(_) => Err(err(format!("bad {name} `{v}`"))),
    }
}

/// Writes `json` as `name` under `--out`; returns the `wrote PATH` line.
fn write_artifact(p: &Args, name: &str, json: &str) -> Result<String, CliError> {
    let path = Path::new(p.get("--out")).join(name);
    std::fs::write(&path, format!("{json}\n"))
        .map_err(|e| fail(format!("cannot write `{}`: {e}", path.display())))?;
    Ok(format!("wrote {}\n", path.display()))
}

fn load_program(path: &str) -> Result<xpulpnn::pulp_asm::Program, CliError> {
    let source =
        std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read `{path}`: {e}")))?;
    parse(&source).map_err(|e| fail(format!("{path}: {e}")))
}

/// The core `run` simulates: `--backend` picks the compute backend,
/// `--isa` the ISA of the SIMD core.
fn run_isa(p: &Args) -> Result<IsaConfig, CliError> {
    use IsaConfig as I;
    if p.has("--backend") {
        p.choice("--backend", &[I::xpulpnn(), I::vector()])
    } else {
        p.choice("--isa", &[I::rv32im(), I::xpulpv2(), I::xpulpnn()])
    }
}

fn cmd_run(p: &Args) -> Result<String, CliError> {
    let path = p.file()?;
    let isa = run_isa(p)?;
    let max_cycles: u64 = p.num("--max-cycles", ..)?;
    let trace = p.has("--trace");
    let cores: usize = p.num("--cores", 1..=8)?;
    let vlen: Option<u32> = p.opt_num("--vlen", 32..=256)?;
    if trace && cores > 1 {
        return Err(err("--trace is single-core only (use --cores 1)"));
    }
    if let Some(v) = vlen {
        if !v.is_power_of_two() {
            return Err(err(format!(
                "bad --vlen `{v}` (want a power of two in 32..=256)"
            )));
        }
        if !isa.rvv {
            return Err(err("--vlen requires --backend vector"));
        }
        if cores > 1 {
            return Err(err("--vlen is single-core only (use --cores 1)"));
        }
    }
    let prog = load_program(path)?;
    if cores > 1 {
        let r = xpulpnn::pulp_cluster::run_spmd(isa, cores, &prog, max_cycles, cores);
        return Ok(spmd_report(&r.map_err(fail)?));
    }
    let mut soc = match vlen {
        Some(v) => Soc::with_vlen(isa, v),
        None => Soc::new(isa),
    };
    soc.load(&prog);
    let mut out = String::new();
    const TRACE_CAP: usize = 5000;
    let before = soc.core.perf;
    let exit = if trace {
        let mut lines = 0usize;
        let mut trace_buf = String::new();
        let exit = soc.core.run_traced(&mut soc.mem, max_cycles, |pc, i| {
            if lines < TRACE_CAP {
                let _ = writeln!(trace_buf, "  {pc:08x}:  {i}");
            }
            lines += 1;
        });
        out.push_str(&trace_buf);
        if lines > TRACE_CAP {
            let _ = writeln!(out, "  ... ({} more instructions)", lines - TRACE_CAP);
        }
        exit
    } else {
        soc.run(max_cycles).map(|r| r.exit)
    };
    let perf = soc.core.perf.delta_since(&before);
    match exit {
        Ok(exit) => {
            let _ = writeln!(out, "exit code : {}", exit.exit_code);
        }
        // Budget exhaustion is a reportable outcome, not an error: show
        // where the program was stuck along with the final state.
        Err(Trap::Watchdog { pc, budget }) => {
            let _ = writeln!(out, "cycle budget ({budget}) exhausted at pc {pc:#010x}");
        }
        Err(t) => return Err(fail(t)),
    }
    let _ = writeln!(out, "cycles    : {}", perf.cycles);
    let _ = writeln!(out, "instret   : {}", perf.instret);
    let console = soc.console_text();
    if !console.is_empty() {
        let _ = writeln!(out, "console   : {console:?}");
    }
    let _ = writeln!(out, "\nregisters:");
    for chunk in ALL_REGS.chunks(4) {
        let mut line = String::new();
        for r in chunk {
            let _ = write!(line, "  {:>4} = {:#010x}", r.abi_name(), soc.core.reg(*r));
        }
        let _ = writeln!(out, "{line}");
    }
    Ok(out)
}

/// `run --cores N`: the program ran SPMD on an N-hart cluster.
fn spmd_report(r: &xpulpnn::pulp_cluster::RawRunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "exit codes: {:?}", r.exit_codes);
    let _ = writeln!(out, "cycles    : {}", r.clock);
    let _ = writeln!(
        out,
        "conflicts : {} ({} stall cycles)",
        r.stats.conflicts, r.stats.conflict_stalls
    );
    for (h, p) in r.per_hart.iter().enumerate() {
        let _ = writeln!(
            out,
            "  hart {h} : instret {:<10} busy {:<10} barrier-wait {}",
            p.instret, r.stats.busy[h], r.stats.barrier_wait[h]
        );
    }
    if !r.console.is_empty() {
        let _ = writeln!(out, "console   : {:?}", r.console);
    }
    out
}

/// `--bits`, `--isa` and `--sw-quant`: the paper-layer kernel `profile`
/// and `cluster` run. `ConvKernelConfig::paper` drops `pv.qnt` where it
/// cannot exist (XpulpV2 or 8-bit).
fn paper_kernel(p: &Args) -> Result<ConvKernelConfig, CliError> {
    let bits = p.choice("--bits", &[BitWidth::W8, BitWidth::W4, BitWidth::W2])?;
    let isa = p.choice("--isa", &[KernelIsa::XpulpV2, KernelIsa::XpulpNN])?;
    Ok(ConvKernelConfig::paper(bits, isa, !p.has("--sw-quant")))
}

fn cmd_cluster(p: &Args) -> Result<String, CliError> {
    let cfg = paper_kernel(p)?;
    let cores: usize = p.num("--cores", 1..=8)?;
    let seed: u64 = p.num("--seed", ..)?;
    let threads: usize = p.num("--threads", 1..)?;
    let tb = xpulpnn::pulp_cluster::ClusterConvTestbench::new(cfg, cores, seed).map_err(fail)?;
    let r = tb.run(threads).map_err(fail)?;
    if !r.matches() {
        return Err(fail(format!(
            "{}: cluster output diverged from the golden model",
            cfg.name()
        )));
    }
    let single = xpulpnn::measure::measure(cfg, seed).map_err(fail)?;
    let mut out = String::new();
    let _ = writeln!(out, "kernel      : {} on {} core(s)", cfg.name(), cores);
    let _ = writeln!(out, "output      : matches golden model (bit-exact)");
    let _ = writeln!(
        out,
        "cycles      : {} ({:.2} MACs/cycle)",
        r.cycles,
        r.macs_per_cycle(&cfg)
    );
    let _ = writeln!(
        out,
        "speedup     : {:.2}x over single-core ({} cycles)",
        single.cycles as f64 / r.cycles as f64,
        single.cycles
    );
    let _ = writeln!(
        out,
        "conflicts   : {} ({} stall cycles)",
        r.stats.conflicts, r.stats.conflict_stalls
    );
    let _ = writeln!(
        out,
        "dma         : prologue {} + writeback {} blocking; {} hidden, {} exposed",
        r.stats.dma_prologue, r.stats.dma_writeback, r.stats.dma_hidden, r.stats.dma_exposed
    );
    for h in 0..cores {
        let _ = writeln!(
            out,
            "  hart {h}    : busy {:<10} barrier-wait {:<8} utilization {:.1}%",
            r.stats.busy[h],
            r.stats.barrier_wait[h],
            r.utilization(h) * 100.0
        );
    }
    Ok(out)
}

fn cmd_bench(p: &Args) -> Result<String, CliError> {
    let seed: u64 = p.num("--seed", ..)?;
    if p.has("--host") {
        return cmd_bench_host(p, seed);
    }
    let records = xpulpnn::bench::paper_bench_suite(seed).map_err(fail)?;
    let mut out = String::new();
    if p.has("--json") {
        for r in &records {
            out += &write_artifact(p, &format!("BENCH_{}.json", r.label), &r.to_json())?;
        }
        return Ok(out);
    }
    for r in &records {
        let _ = writeln!(
            out,
            "{:<12} {} core(s)  {:>9} cycles  {:.2} MACs/cycle",
            r.label,
            r.cores,
            r.cycles,
            r.macs_per_cycle()
        );
        for (name, cycles) in &r.breakdown {
            let _ = writeln!(out, "    {name:<24} {cycles}");
        }
    }
    Ok(out)
}

/// `bench --host`: time the simulator itself on the Fig. 8 layer (SIMD
/// and Xrvv VLEN 128), reference steps vs. block replay, and write
/// `BENCH_host_throughput.json`.
fn cmd_bench_host(p: &Args, seed: u64) -> Result<String, CliError> {
    let report = xpulpnn::bench::host_throughput(seed).map_err(fail)?;
    let wrote = write_artifact(p, "BENCH_host_throughput.json", &report.to_json())?;
    let mut out = String::new();
    for r in [&report.simd, &report.vector] {
        let _ = writeln!(out, "kernel          : {}", r.kernel);
        let _ = writeln!(
            out,
            "simulated       : {} cycles / {} instructions (bit-exact on both paths)",
            r.cycles, r.instret
        );
        let _ = writeln!(
            out,
            "reference step  : {:.3}s  ({:.2} Mcycles/s)",
            r.reference_secs,
            r.reference_cps() / 1e6
        );
        let _ = writeln!(
            out,
            "block replay    : {:.3}s  ({:.2} Mcycles/s)",
            r.replay_secs,
            r.replay_cps() / 1e6
        );
        let _ = writeln!(out, "speedup         : {:.2}x", r.speedup());
        let _ = writeln!(
            out,
            "block cache     : {:.4} hit rate, {} blocks translated, {} reference fallbacks, {} invalidations",
            r.hit_rate, r.translations, r.interp_fallbacks, r.invalidations
        );
    }
    for (label, row) in [("fault-armed", &report.armed), ("traced", &report.traced)] {
        let _ = writeln!(
            out,
            "{label:<16}: {:.3}s  ({:.2} Mcycles/s, {:.2}x block replay time) on {}",
            row.secs,
            row.cps() / 1e6,
            row.slowdown(&report.simd),
            report.simd.kernel
        );
    }
    out += &wrote;
    Ok(out)
}

fn cmd_dis(p: &Args) -> Result<String, CliError> {
    Ok(load_program(p.file()?)?.listing())
}

fn cmd_codesize(p: &Args) -> Result<String, CliError> {
    let prog = load_program(p.file()?)?;
    let r = code_size_report(prog.instrs.iter());
    Ok(format!(
        "instructions        : {}\ncompressible (RVC)  : {}\nbytes (32-bit only) : {}\nbytes (with RVC)    : {}\nsavings             : {:.1}%\n",
        r.instructions,
        r.compressible,
        r.bytes_uncompressed,
        r.bytes_compressed,
        r.savings() * 100.0
    ))
}

fn cmd_sweep(p: &Args) -> Result<String, CliError> {
    let m = xpulpnn::experiments::collect(p.num("--seed", ..)?).map_err(fail)?;
    Ok(format!(
        "{}\n{}",
        xpulpnn::experiments::figure6(&m),
        xpulpnn::experiments::figure8(&m)
    ))
}

fn cmd_report(p: &Args) -> Result<String, CliError> {
    let r = xpulpnn::experiments::run_all(p.num("--seed", ..)?).map_err(fail)?;
    Ok(format!("{r}\n"))
}

fn cmd_profile(p: &Args) -> Result<String, CliError> {
    let prof =
        xpulpnn::measure::profile(paper_kernel(p)?, p.num("--seed", ..)?, p.num("--top", ..)?)
            .map_err(fail)?;
    Ok(format!("{}\n", prof.to_json()))
}

fn cmd_lint(p: &Args) -> Result<String, CliError> {
    if p.has("--races") {
        return cmd_lint_races(p.num("--cores", 1..=xpulpnn::pulp_kernels::cluster::MAX_HARTS)?);
    }
    if let Some(path) = p.value("<file.s>") {
        // Lint one assembly file. No tensor regions are declared, so
        // memory checks report as unproven rather than diagnostics.
        let prog = load_program(path)?;
        let config = xpulpnn::xcheck::LintConfig::kernel(vec![]);
        let report = xpulpnn::xcheck::analyze_program(&prog, &config);
        return if report.clean() {
            Ok(format!("{path}: {}\n", report.summary()))
        } else {
            Err(fail(format!("{path}:\n{}", report.render())))
        };
    }
    // No file: lint every shipped kernel against its declared regions,
    // plus the eight parallel cluster kernels (8-hart split).
    let mut kernels = xpulpnn::lint::shipped_kernels().map_err(fail)?;
    kernels.extend(xpulpnn::lint::cluster_kernels(8).map_err(fail)?);
    let mut out = String::new();
    let mut dirty = 0usize;
    for k in &kernels {
        let r = k.lint();
        if r.clean() {
            let _ = writeln!(out, "{:<28} {}", k.name, r.summary());
        } else {
            dirty += 1;
            let _ = writeln!(out, "{:<28} FAIL\n{}", k.name, r.render());
        }
    }
    if dirty > 0 {
        Err(fail(format!("{out}{dirty} kernel(s) failed lint")))
    } else {
        let _ = writeln!(out, "{} kernels lint-clean", kernels.len());
        Ok(out)
    }
}

/// `lint --races`: prove every shipped kernel data-race-free under the
/// SPMD analyzer — single-core kernels trivially, cluster kernels by
/// per-hart abstract execution over their dispatch/DMA contracts.
fn cmd_lint_races(cores: usize) -> Result<String, CliError> {
    let kernels = xpulpnn::lint::race_kernels(cores).map_err(fail)?;
    let mut out = String::new();
    let mut dirty = 0usize;
    for k in &kernels {
        let r = k.verify();
        if r.race_clean() {
            let _ = writeln!(out, "{:<28} {}", k.name, r.summary());
        } else {
            dirty += 1;
            let _ = writeln!(out, "{:<28} RACY\n{}", k.name, r.render());
        }
    }
    if dirty > 0 {
        Err(fail(format!(
            "{out}{dirty} kernel(s) failed race verification"
        )))
    } else {
        let _ = writeln!(out, "{} kernels race-clean", kernels.len());
        Ok(out)
    }
}

fn cmd_conformance(p: &Args) -> Result<String, CliError> {
    let cases: u64 = p.num("--cases", ..)?;
    let seed: u64 = p.num("--seed", ..)?;
    if p.has("--races") {
        let r = xpulpnn::races::run_races(seed).map_err(fail)?;
        return if r.passed() {
            Ok(r.render())
        } else {
            Err(fail(r.render()))
        };
    }
    if p.has("--fastpath") {
        let cfg = xpulpnn::conformance::FastDiffConfig::default();
        let report = xpulpnn::conformance::run_fast_suite(seed, cases, &cfg);
        return match report.failure {
            None => Ok(format!(
                "conformance --fastpath: {} cases, 0 divergences (seed {})\n",
                report.cases_run, seed
            )),
            Some(f) => Err(fail(f)),
        };
    }
    if p.has("--crossval") {
        let gen = xpulpnn::conformance::GenConfig::default();
        let r = xpulpnn::conformance::run_crossval(seed, cases, &gen);
        return if r.ok() {
            Ok(format!("{r}\n"))
        } else {
            Err(fail(r))
        };
    }
    let cfg = xpulpnn::conformance::DiffConfig {
        gen: if p.has("--vector") {
            xpulpnn::conformance::GenConfig::vector()
        } else {
            xpulpnn::conformance::GenConfig::default()
        },
        ..xpulpnn::conformance::DiffConfig::default()
    };
    let report = xpulpnn::conformance::run_suite(seed, cases, &cfg);
    let mode = if p.has("--vector") { " --vector" } else { "" };
    match report.failure {
        None => Ok(format!(
            "conformance{mode}: {} cases, 0 divergences (seed {})\n",
            report.cases_run, seed
        )),
        Some(f) => Err(fail(f)),
    }
}

fn cmd_faults(p: &Args) -> Result<String, CliError> {
    let seed: u64 = p.num("--seed", ..)?;
    let trials: u64 = p.num("--trials", ..)?;
    let report = if p.has("--cluster") {
        let cores = p.num("--cores", 1..=8)?;
        xpulpnn::faultsim::run_cluster_campaign(seed, trials, cores).map(|r| r.to_string())
    } else if let Some(spec) = p.value("--replay") {
        let (variant, trial) = replay_spec(spec)?;
        xpulpnn::faultsim::replay(seed, variant, trial).map(|r| r.to_string())
    } else {
        xpulpnn::faultsim::run_campaign(seed, trials).map(|r| r.to_string())
    };
    report.map_err(fail)
}

/// A `--replay` spec, `variant:trial`.
fn replay_spec(v: &str) -> Result<(usize, u64), CliError> {
    let (variant, trial) = v
        .split_once(':')
        .ok_or_else(|| err(format!("bad --replay `{v}` (want V:T)")))?;
    Ok((number("variant", variant, ..)?, number("trial", trial, ..)?))
}

fn cmd_serve(p: &Args) -> Result<String, CliError> {
    use xpulpnn::serve::{PoolConfig, Request, ServePool, Variant};
    let workers: usize = p.num("--workers", 1..=16)?;
    let seed: u64 = p.num("--seed", ..)?;
    let pool = ServePool::start(PoolConfig {
        workers,
        weight_seed: p.num("--weight-seed", ..)?,
        ..PoolConfig::default()
    })
    .map_err(fail)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pool   : {} worker(s), each forked from the 4 staged templates",
        workers
    );
    for (id, &variant) in Variant::ALL.iter().enumerate() {
        let t = pool.template(variant);
        let _ = writeln!(
            out,
            "template {:<7} {:>5} -> {:>4} i16  {:>9} clean cycles",
            variant.name(),
            t.input_len(),
            t.output_len(),
            t.clean_cycles()
        );
        // A deterministic, range-valid smoke input per variant.
        let span = u64::from(t.max_activation() as u16) + 1;
        let input = (0..t.input_len() as u64)
            .map(|i| ((seed.wrapping_add(i * 7)) % span) as i16)
            .collect();
        pool.submit_blocking(Request {
            id: id as u64,
            variant,
            input,
        })
        .map_err(fail)?;
    }
    let report = pool.shutdown();
    for r in &report.responses {
        let _ = writeln!(
            out,
            "served   {:<7} {:>9} cycles  {} ({})",
            r.variant.name(),
            r.cycles,
            r.outcome.label(),
            if r.warm { "warm" } else { "cold fork" }
        );
    }
    let _ = writeln!(
        out,
        "served {} request(s): {} ok, {} cold fork(s), {} warm run(s)",
        report.stats.served, report.stats.ok, report.stats.cold_forks, report.stats.warm_runs
    );
    Ok(out)
}

/// `loadgen`'s flags over the library's default configuration.
fn loadgen_config(p: &Args) -> Result<xpulpnn::serve::LoadgenConfig, CliError> {
    use xpulpnn::serve::{LoadgenConfig, ServeFaults};
    let d = LoadgenConfig::default();
    Ok(LoadgenConfig {
        seed: p.opt_num("--seed", ..)?.unwrap_or(d.seed),
        requests: p.opt_num("--requests", ..)?.unwrap_or(d.requests),
        workers: p.opt_num("--workers", 1..=16)?.unwrap_or(d.workers),
        queue_capacity: p.opt_num("--queue", 1..)?.unwrap_or(d.queue_capacity),
        batch_max: p.opt_num("--batch", 1..)?.unwrap_or(d.batch_max),
        weight_seed: p.opt_num("--weight-seed", ..)?.unwrap_or(d.weight_seed),
        warm_reruns: d.warm_reruns && !p.has("--no-warm"),
        faults: p
            .opt_num("--faults", ..)?
            .map(ServeFaults::always)
            .or(d.faults),
        mean_gap_us: p.opt_num("--gap-us", ..)?.unwrap_or(d.mean_gap_us),
    })
}

fn cmd_loadgen(p: &Args) -> Result<String, CliError> {
    let rec = xpulpnn::bench::ServingRecord::run(loadgen_config(p)?).map_err(fail)?;
    let wrote = write_artifact(p, "BENCH_serving.json", &rec.to_json())?;
    let r = &rec.report;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "responses : {} ({} ok, {} masked, {} recovered, {} degraded)",
        r.responses.len(),
        r.count("ok"),
        r.count("masked"),
        r.count("recovered"),
        r.count("degraded")
    );
    let _ = writeln!(out, "digest    : {:016x}", r.digest);
    let _ = writeln!(
        out,
        "sim cycles: p50 {}  p99 {}  max {}",
        r.sim_cycles.p50, r.sim_cycles.p99, r.sim_cycles.max
    );
    let _ = writeln!(
        out,
        "host us   : p50 {}  p99 {}  max {}",
        r.host_us.p50, r.host_us.p99, r.host_us.max
    );
    let _ = writeln!(
        out,
        "throughput: {:.1} req/s sustained over {:.3}s ({} cold forks, {} warm runs)",
        r.req_per_sec, r.wall_secs, r.stats.cold_forks, r.stats.warm_runs
    );
    out += &wrote;
    Ok(out)
}

/// `soak`'s flags over the library's default configuration.
fn soak_config(p: &Args) -> Result<xpulpnn::serve::SoakConfig, CliError> {
    let d = xpulpnn::serve::SoakConfig::default();
    Ok(xpulpnn::serve::SoakConfig {
        seed: p.opt_num("--seed", ..)?.unwrap_or(d.seed),
        workers: p.opt_num("--workers", 1..=16)?.unwrap_or(d.workers),
        scale: p.opt_num("--scale", 1..)?.unwrap_or(d.scale),
        weight_seed: p.opt_num("--weight-seed", ..)?.unwrap_or(d.weight_seed),
    })
}

fn cmd_soak(p: &Args) -> Result<String, CliError> {
    let rec = xpulpnn::bench::SoakRecord::run(soak_config(p)?).map_err(fail)?;
    let r = &rec.report;
    // The campaign's own invariants gate the artifact: a lost request
    // or a stuck breaker is a runtime failure, not a report detail.
    let lost = r.lost_ids();
    if !lost.is_empty() {
        return Err(fail(format!(
            "soak lost {} request(s): first missing id {}",
            lost.len(),
            lost[0]
        )));
    }
    if !r.breakers_closed {
        return Err(fail("soak ended with an open circuit breaker"));
    }
    let wrote = write_artifact(p, "BENCH_soak.json", &rec.to_json())?;
    let c = &r.counters;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "responses : {} ({} requests, zero lost, every outcome typed)",
        r.responses.len(),
        c.requests
    );
    let _ = writeln!(
        out,
        "shed      : {} queue-full, {} deadline-pressure",
        c.shed_queue_full, c.shed_pressure
    );
    let _ = writeln!(
        out,
        "deadlines : {} retried, {} timed out",
        c.retried, c.timed_out
    );
    let _ = writeln!(
        out,
        "breakers  : {} trip(s), {} re-close(s), {} golden fallback(s)",
        c.breaker_trips, c.breaker_closes, c.fallback_served
    );
    let _ = writeln!(
        out,
        "workers   : {} reap(s), {} template quarantine(s)",
        r.pool_stats.reaps, r.pool_stats.quarantines
    );
    for p in &r.phases {
        let _ = writeln!(
            out,
            "phase     : {:<19} {:>3} req  {} shed  {} retried  {} timed-out  {} trip(s)  {} fallback",
            p.phase.name(),
            p.requests,
            p.shed,
            p.retried,
            p.timed_out,
            p.breaker_trips,
            p.fallback_served
        );
    }
    let _ = writeln!(out, "digest    : {:016x}", r.digest);
    let _ = writeln!(out, "wall      : {:.3}s", r.wall_secs);
    out += &wrote;
    Ok(out)
}

/// Dispatches a full argument vector.
///
/// # Errors
///
/// [`CliError`] with a message for the user.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let (name, rest) = args
        .split_first()
        .ok_or_else(|| err("missing subcommand"))?;
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        return Ok(format!("{USAGE}\n"));
    }
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| err(format!("unknown subcommand `{name}`")))?;
    (cmd.run)(&parse_args(cmd, rest)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(std::string::ToString::to_string).collect()
    }

    /// `argv` parsed against the `cmd` table.
    fn args(cmd: &str, argv: &[&str]) -> Result<Args, CliError> {
        let cmd = COMMANDS.iter().find(|c| c.name == cmd).unwrap();
        parse_args(cmd, &v(argv))
    }

    /// Whether `dispatch` rejects `args` as a usage error.
    fn usage_error(args: &[&str]) -> bool {
        dispatch(&v(args)).is_err_and(|e| e.usage)
    }

    /// Every table entry appears in its subcommand's USAGE synopsis as
    /// declared (the same metavar, nested under its mode), and every
    /// `--flag` the entry mentions is declared, so help text and parser
    /// cannot drift apart.
    #[test]
    fn flag_table_matches_usage() {
        let entries: Vec<&str> = USAGE.split("\n  xpulpnn ").skip(1).collect();
        assert_eq!(entries.len(), COMMANDS.len());
        for cmd in COMMANDS {
            let entry = entries
                .iter()
                .find(|e| e.split_whitespace().next() == Some(cmd.name))
                .unwrap_or_else(|| panic!("no USAGE entry for `{}`", cmd.name));
            // The synopsis: the first line, after the subcommand, plus its
            // `[...]` continuation lines. Each bracket holds one spec.
            let mut lines = entry.lines();
            let first = &lines.next().unwrap()[cmd.name.len()..];
            let synopsis = std::iter::once(first)
                .chain(lines.take_while(|l| l.trim_start().starts_with('[')))
                .collect::<Vec<_>>()
                .join(" ");
            let mut specs: Vec<&str> = synopsis
                .split(['[', ']'])
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            let mut declared: Vec<&str> = cmd.flags.iter().map(|f| f.spec).collect();
            specs.sort_unstable();
            declared.sort_unstable();
            assert_eq!(declared, specs, "`{}` table vs USAGE synopsis", cmd.name);

            let names: Vec<&str> = cmd.flags.iter().map(Flag::name).collect();
            for word in entry.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if word.starts_with("--") {
                    assert!(
                        names.contains(&word),
                        "`{} {word}` is not declared",
                        cmd.name
                    );
                }
            }
            for f in cmd.flags {
                // `[--races [--cores N]]`: nested exactly when declared under.
                let nested = synopsis
                    .find(&format!(" [{}]]", f.spec))
                    .and_then(|i| synopsis[..i].rsplit('[').next());
                assert_eq!(f.under, nested, "`{} {}` mode", cmd.name, f.spec);
                if let Some(d) = f.default.filter(|d| d.starts_with("--")) {
                    assert!(names.contains(&d), "{}: default {d}", cmd.name);
                }
            }
            for name in cmd.exclusive {
                assert!(names.contains(name), "{}: exclusive {name}", cmd.name);
            }
        }
    }

    #[test]
    fn run_opts_defaults_and_flags() {
        let a = args("run", &["prog.s"]).unwrap();
        assert_eq!(a.file().unwrap(), "prog.s");
        assert_eq!(run_isa(&a).unwrap(), IsaConfig::xpulpnn());
        assert_eq!(a.num::<u64>("--max-cycles", ..).unwrap(), 100_000_000);

        let a = args("run", &["--isa", "xpulpv2", "p.s", "--max-cycles", "5"]).unwrap();
        assert_eq!(run_isa(&a).unwrap(), IsaConfig::xpulpv2());
        assert_eq!(a.num::<u64>("--max-cycles", ..).unwrap(), 5);
        assert_eq!(a.file().unwrap(), "p.s");
        assert_eq!(a.num::<usize>("--cores", 1..=8).unwrap(), 1);

        let a = args("run", &["p.s", "--cores", "4"]).unwrap();
        assert_eq!(a.num::<usize>("--cores", 1..=8).unwrap(), 4);
    }

    #[test]
    fn run_opts_errors() {
        assert!(usage_error(&["run"]));
        assert!(usage_error(&["run", "a.s", "b.s"]));
        assert!(usage_error(&["run", "a.s", "--isa", "armv7"]));
        assert!(usage_error(&["run", "a.s", "--max-cycles", "lots"]));
        assert!(usage_error(&["run", "a.s", "--bogus"]));
        assert!(usage_error(&["run", "a.s", "--cores", "9"]));
        assert!(usage_error(&["run", "a.s", "--cores", "0"]));
        // Tracing interleaves harts unreadably; reject the combination.
        assert!(usage_error(&["run", "a.s", "--cores", "2", "--trace"]));
    }

    #[test]
    fn conformance_opts_defaults_and_flags() {
        const MODES: [&str; 4] = ["--crossval", "--fastpath", "--races", "--vector"];
        let a = args("conformance", &[]).unwrap();
        assert_eq!(a.num::<u64>("--cases", ..).unwrap(), 1000);
        assert_eq!(a.num::<u64>("--seed", ..).unwrap(), 1);
        assert!(MODES.iter().all(|m| !a.has(m)));

        let a = args(
            "conformance",
            &["--cases", "25", "--seed", "7", "--crossval"],
        )
        .unwrap();
        assert_eq!(a.num::<u64>("--cases", ..).unwrap(), 25);
        assert_eq!(a.num::<u64>("--seed", ..).unwrap(), 7);
        assert!(a.has("--crossval"));
        assert!(MODES[1..].iter().all(|m| !a.has(m)));

        let a = args("conformance", &["--vector", "--cases", "12"]).unwrap();
        assert!(a.has("--vector"));
        assert_eq!(a.num::<u64>("--cases", ..).unwrap(), 12);

        let a = args("conformance", &["--fastpath", "--cases", "5"]).unwrap();
        assert!(a.has("--fastpath"));
        assert_eq!(a.num::<u64>("--cases", ..).unwrap(), 5);

        let a = args("conformance", &["--races", "--seed", "9"]).unwrap();
        assert!(a.has("--races"));
        assert_eq!(a.num::<u64>("--seed", ..).unwrap(), 9);

        assert!(args("conformance", &["--cases"]).is_err());
        assert!(usage_error(&["conformance", "--cases", "many"]));
        assert!(args("conformance", &["--bogus"]).is_err());
        assert!(args("conformance", &["--crossval", "--fastpath"]).is_err());
        assert!(args("conformance", &["--crossval", "--races"]).is_err());
        assert!(args("conformance", &["--fastpath", "--races"]).is_err());
    }

    #[test]
    fn conformance_fastpath_smoke_reports_clean() {
        let out = dispatch(&v(&[
            "conformance",
            "--fastpath",
            "--cases",
            "20",
            "--seed",
            "1",
        ]))
        .unwrap();
        assert!(
            out.contains("--fastpath: 20 cases, 0 divergences (seed 1)"),
            "{out}"
        );
    }

    #[test]
    fn conformance_smoke_reports_clean() {
        let out = dispatch(&v(&["conformance", "--cases", "20", "--seed", "1"])).unwrap();
        assert!(out.contains("20 cases, 0 divergences (seed 1)"), "{out}");
    }

    #[test]
    fn conformance_crossval_smoke() {
        let out = dispatch(&v(&[
            "conformance",
            "--crossval",
            "--cases",
            "15",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("15 cases"), "{out}");
        assert!(out.contains("0 clean-but-trapped"), "{out}");
        assert!(out.contains("0 missed statically"), "{out}");
    }

    #[test]
    fn conformance_races_smoke() {
        let out = dispatch(&v(&["conformance", "--races", "--seed", "42"])).unwrap();
        assert!(out.contains("32/32 clean configs agree"), "{out}");
        assert!(
            out.contains("3/3 injected races caught by both detectors"),
            "{out}"
        );
    }

    #[test]
    fn serve_and_loadgen_opts_defaults_and_flags() {
        let serve = |a: &Args| {
            (
                a.num::<usize>("--workers", 1..=16).unwrap(),
                a.num::<u64>("--seed", ..).unwrap(),
                a.num::<u64>("--weight-seed", ..).unwrap(),
            )
        };
        assert_eq!(serve(&args("serve", &[]).unwrap()), (2, 1, 42));
        let a = args("serve", &["--workers", "8", "--seed", "7"]).unwrap();
        assert_eq!(serve(&a), (8, 7, 42));

        let a = args("loadgen", &[]).unwrap();
        assert_eq!(
            loadgen_config(&a).unwrap(),
            xpulpnn::serve::LoadgenConfig::default()
        );
        assert_eq!(a.get("--out"), ".");
        let a = args(
            "loadgen",
            &[
                "--seed",
                "9",
                "--requests",
                "500",
                "--workers",
                "8",
                "--batch",
                "4",
                "--queue",
                "32",
                "--faults",
                "13",
                "--gap-us",
                "50",
                "--no-warm",
                "--out",
                "/tmp",
            ],
        )
        .unwrap();
        let cfg = loadgen_config(&a).unwrap();
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.requests, 500);
        assert_eq!(cfg.workers, 8);
        assert_eq!(cfg.batch_max, 4);
        assert_eq!(cfg.queue_capacity, 32);
        assert_eq!(cfg.faults, Some(xpulpnn::serve::ServeFaults::always(13)));
        assert_eq!(cfg.mean_gap_us, 50);
        assert!(!cfg.warm_reruns);
        assert_eq!(a.get("--out"), "/tmp");

        let a = args("soak", &[]).unwrap();
        assert_eq!(
            soak_config(&a).unwrap(),
            xpulpnn::serve::SoakConfig::default()
        );
        assert_eq!(a.get("--out"), ".");
        let a = args(
            "soak",
            &[
                "--seed",
                "3",
                "--workers",
                "4",
                "--scale",
                "8",
                "--weight-seed",
                "11",
                "--out",
                "/tmp",
            ],
        )
        .unwrap();
        let cfg = soak_config(&a).unwrap();
        assert_eq!(cfg.seed, 3);
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.scale, 8);
        assert_eq!(cfg.weight_seed, 11);
        assert_eq!(a.get("--out"), "/tmp");

        assert!(args("serve", &["--bogus"]).is_err());
        assert!(args("loadgen", &["--bogus"]).is_err());
        assert!(args("soak", &["--bogus"]).is_err());
    }

    /// End-to-end `loadgen` smoke: a tiny seeded run prints the exact
    /// summary lines ci.sh greps for and writes BENCH_serving.json.
    #[test]
    fn loadgen_end_to_end_writes_artifact() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-loadgen-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dispatch(&v(&[
            "loadgen",
            "--seed",
            "1",
            "--requests",
            "6",
            "--workers",
            "2",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(
            out.contains("responses : 6 (6 ok, 0 masked, 0 recovered, 0 degraded)"),
            "{out}"
        );
        assert!(out.contains("digest    : "), "{out}");
        assert!(out.contains("sim cycles: p50 "), "{out}");
        assert!(out.contains("wrote "), "{out}");
        let json = std::fs::read_to_string(dir.join("BENCH_serving.json")).unwrap();
        assert!(json.contains("\"label\": \"serving\""), "{json}");
        assert!(json.contains("\"requests\": 6"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End-to-end `soak` smoke at the smallest scale: all five phases
    /// run, the invariant gates pass, and BENCH_soak.json lands with
    /// the resilience counters ci.sh pins.
    #[test]
    fn soak_end_to_end_writes_artifact() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-soak-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dispatch(&v(&[
            "soak",
            "--seed",
            "1",
            "--workers",
            "2",
            "--scale",
            "4",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("responses : 32 (32 requests"), "{out}");
        assert!(out.contains("digest    : "), "{out}");
        assert!(out.contains("phase     : overload"), "{out}");
        assert!(out.contains("phase     : recovery"), "{out}");
        assert!(out.contains("wrote "), "{out}");
        let json = std::fs::read_to_string(dir.join("BENCH_soak.json")).unwrap();
        assert!(json.contains("\"label\": \"soak\""), "{json}");
        assert!(json.contains("\"breakers_closed\": true"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dispatch_rejects_unknown() {
        assert!(dispatch(&v(&["frobnicate"])).is_err());
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&v(&["--help"])).unwrap().contains("usage"));
    }

    /// A malformed numeric argument on
    /// *any* subcommand is a typed usage error (exit code 2), never a
    /// panic and never a runtime failure. Exercised through `dispatch`
    /// so the per-subcommand wiring is covered, not just the parsers.
    #[test]
    fn malformed_numeric_args_are_usage_errors_on_every_subcommand() {
        let cases: &[&[&str]] = &[
            &["run", "a.s", "--max-cycles", "lots"],
            &["run", "a.s", "--max-cycles", "-3"],
            &["run", "a.s", "--cores", "nine"],
            &["run", "a.s", "--cores", "9"],
            &["run", "a.s", "--cores", "0"],
            &["run", "a.s", "--backend", "avx"],
            &["run", "a.s", "--backend", "vector", "--isa", "xpulpnn"],
            &["run", "a.s", "--vlen", "96"],
            &["run", "a.s", "--vlen", "512"],
            &["run", "a.s", "--vlen", "lots"],
            &["run", "a.s", "--vlen", "128"], // --vlen without --backend vector
            &[
                "run",
                "a.s",
                "--backend",
                "vector",
                "--vlen",
                "128",
                "--cores",
                "2",
            ],
            &["sweep", "--seed", "0x2a"],
            &["report", "--seed", ""],
            &["profile", "--seed", "4.2"],
            &["profile", "--top", "ten"],
            &["cluster", "--cores", "-1"],
            &["cluster", "--threads", "0"],
            &["cluster", "--seed", "seed"],
            &["bench", "--seed", "1e6"],
            &["conformance", "--cases", "many"],
            &["conformance", "--cases", "-5"],
            &["conformance", "--seed", "later"],
            &["conformance", "--fastpath", "--cases", "many"],
            &["conformance", "--vector", "--crossval"],
            &["conformance", "--vector", "--races"],
            &["faults", "--trials", "many"],
            &["faults", "--seed", "√2"],
            &["faults", "--cores", "8.0"],
            &["serve", "--workers", "lots"],
            &["serve", "--workers", "0"],
            &["serve", "--seed", "-1"],
            &["loadgen", "--requests", "many"],
            &["loadgen", "--workers", "0"],
            &["loadgen", "--workers", "17"],
            &["loadgen", "--batch", "0"],
            &["loadgen", "--queue", "0"],
            &["loadgen", "--faults", "maybe"],
            &["loadgen", "--gap-us", "1ms"],
            &["soak", "--seed", "one"],
            &["soak", "--workers", "0"],
            &["soak", "--workers", "17"],
            &["soak", "--scale", "0"],
            &["soak", "--scale", "lots"],
            &["soak", "--weight-seed", "-1"],
            // One positional and no flags.
            &["dis", "p.s", "extra", "--bogus"],
            &["codesize", "p.s", "p.s"],
            // Flags outside the mode that takes them.
            &["faults", "--cores", "4", "--trials", "0"],
            &["lint", "p.s", "--cores", "4"],
            &["lint", "--cores", "4"],
            &["bench", "--json", "--host"],
        ];
        for args in cases {
            let e = dispatch(&v(args)).expect_err(&format!("{args:?} must be rejected"));
            assert!(e.usage, "{args:?} must be a usage error, got: {e}");
            assert_eq!(e.exit_code(), 2, "{args:?}");
        }
        // Missing values behave the same as malformed ones.
        for args in [
            &["run", "a.s", "--max-cycles"][..],
            &["run", "a.s", "--backend"][..],
            &["run", "a.s", "--vlen"][..],
            &["conformance", "--cases"][..],
            &["faults", "--trials"][..],
            &["cluster", "--cores"][..],
            &["loadgen", "--requests"][..],
            &["serve", "--workers"][..],
            &["soak", "--scale"][..],
        ] {
            let e = dispatch(&v(args)).unwrap_err();
            assert!(e.usage, "{args:?}: {e}");
        }
    }

    /// Runtime failures keep exit code 1 — scripts can tell "you called
    /// it wrong" (2) from "it ran and found a problem" (1).
    #[test]
    fn runtime_failures_are_not_usage_errors() {
        let e = dispatch(&v(&["run", "/nonexistent/prog.s"])).unwrap_err();
        assert!(!e.usage, "{e}");
        assert_eq!(e.exit_code(), 1);
        let e = dispatch(&v(&["dis", "/nonexistent/prog.s"])).unwrap_err();
        assert!(!e.usage, "{e}");
        // But a missing *argument* is a usage error.
        let e = dispatch(&v(&["dis"])).unwrap_err();
        assert!(e.usage, "{e}");
    }

    #[test]
    fn end_to_end_run_and_dis_and_codesize() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prog.s");
        std::fs::write(
            &path,
            "li a0, 6\nslli a0, a0, 3\nli t0, 4\nlp.setup x0, t0, end\naddi a1, a1, 1\nend:\necall\n",
        )
        .unwrap();
        let p = path.to_str().unwrap().to_string();

        let out = dispatch(&v(&["run", &p])).unwrap();
        assert!(out.contains("exit code : 48"), "{out}");
        assert!(out.contains("a1 = 0x00000004"), "{out}");

        let out = dispatch(&v(&["dis", &p])).unwrap();
        assert!(out.contains("lp.setup"), "{out}");

        let out = dispatch(&v(&["codesize", &p])).unwrap();
        assert!(out.contains("compressible"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_trace_prints_retired_instructions() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.s");
        std::fs::write(
            &path,
            "li t0, 2\nlp.setup x0, t0, end\naddi a0, a0, 7\nend:\necall\n",
        )
        .unwrap();
        let p = path.to_str().unwrap().to_string();
        let out = dispatch(&v(&["run", &p, "--trace"])).unwrap();
        // The single-instruction loop body retires twice.
        assert_eq!(out.matches("addi a0, a0, 7").count(), 2, "{out}");
        assert!(out.contains("exit code : 14"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_opts_defaults_and_flags() {
        use xpulpnn::QuantMode::HardwareQnt;
        let a = args("profile", &[]).unwrap();
        let cfg = paper_kernel(&a).unwrap();
        assert_eq!(cfg.bits, BitWidth::W4);
        assert_eq!(cfg.isa, KernelIsa::XpulpNN);
        assert_eq!(cfg.quant, HardwareQnt);
        assert_eq!(a.num::<usize>("--top", ..).unwrap(), 10);

        let a = args("profile", &["--bits", "2", "--sw-quant", "--top", "3"]).unwrap();
        let cfg = paper_kernel(&a).unwrap();
        assert_eq!(cfg.bits, BitWidth::W2);
        assert_ne!(cfg.quant, HardwareQnt);
        assert_eq!(a.num::<usize>("--top", ..).unwrap(), 3);

        // pv.qnt silently drops where it cannot exist.
        let a = args("profile", &["--isa", "xpulpv2"]).unwrap();
        assert_ne!(paper_kernel(&a).unwrap().quant, HardwareQnt);
        let a = args("profile", &["--bits", "8"]).unwrap();
        assert_ne!(paper_kernel(&a).unwrap().quant, HardwareQnt);

        assert!(paper_kernel(&args("profile", &["--bits", "3"]).unwrap()).is_err());
        assert!(args("profile", &["--frob"]).is_err());
    }

    #[test]
    fn profile_emits_balanced_json() {
        let out = dispatch(&v(&["profile", "--top", "5"])).unwrap();
        assert!(
            out.contains("\"kernel\": \"4-bit/xpulpnn/pv.qnt\""),
            "{out}"
        );
        assert!(out.contains("\"ledger\""), "{out}");
        assert!(out.contains("\"hotspots\""), "{out}");
        // The ledger's total equals the cycle counter (the core's retire
        // invariant, re-checked here on the emitted JSON).
        let grab = |key: &str| -> u64 {
            let i = out.find(key).unwrap_or_else(|| panic!("no {key} in {out}"));
            out[i + key.len()..]
                .chars()
                .skip_while(|c| !c.is_ascii_digit())
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap()
        };
        assert_eq!(grab("\"cycles\":"), grab("\"total\":"));
        // The 4-bit XpulpNN kernel's hottest class is the dotp unit.
        assert!(out.contains("\"dotp.n\""), "{out}");
    }

    #[test]
    fn faults_opts_defaults_and_flags() {
        let a = args("faults", &[]).unwrap();
        assert_eq!(a.num::<u64>("--seed", ..).unwrap(), 42);
        assert_eq!(a.num::<u64>("--trials", ..).unwrap(), 25);
        assert_eq!(a.value("--replay"), None);
        assert!(!a.has("--cluster"));
        assert_eq!(a.num::<usize>("--cores", 1..=8).unwrap(), 8);

        let a = args("faults", &["--cluster", "--cores", "2"]).unwrap();
        assert!(a.has("--cluster"));
        assert_eq!(a.num::<usize>("--cores", 1..=8).unwrap(), 2);
        // Replay lock-steps a single core; it has no cluster form.
        assert!(args("faults", &["--cluster", "--replay", "0:0"]).is_err());

        let a = args(
            "faults",
            &["--seed", "7", "--trials", "3", "--replay", "4:12"],
        )
        .unwrap();
        assert_eq!(a.num::<u64>("--seed", ..).unwrap(), 7);
        assert_eq!(a.num::<u64>("--trials", ..).unwrap(), 3);
        assert_eq!(replay_spec(a.get("--replay")), Ok((4, 12)));

        assert!(args("faults", &["--replay"]).is_err());
        assert!(usage_error(&["faults", "--replay", "4"]));
        assert!(usage_error(&["faults", "--replay", "a:b"]));
        assert!(usage_error(&["faults", "--trials", "many"]));
        assert!(args("faults", &["--bogus"]).is_err());
    }

    #[test]
    fn faults_campaign_and_replay_smoke() {
        let out = dispatch(&v(&["faults", "--seed", "1", "--trials", "2"])).unwrap();
        assert!(out.contains("totals: detected="), "{out}");
        assert!(out.contains("8-bit"), "{out}");
        // Replay trial 0 of variant 0 under the same seed.
        let out = dispatch(&v(&["faults", "--seed", "1", "--replay", "0:0"])).unwrap();
        assert!(out.contains("class:"), "{out}");
        assert!(out.contains("checkpoint: cycle"), "{out}");
        // Unknown variants surface as CLI errors, not panics.
        assert!(dispatch(&v(&["faults", "--replay", "99:0"])).is_err());
    }

    #[test]
    fn lint_all_shipped_kernels_is_clean() {
        let out = dispatch(&v(&["lint"])).unwrap();
        // 20 single-core kernels (including the five vector-backend
        // conv variants) + the 8 parallel cluster variants.
        assert!(out.contains("28 kernels lint-clean"), "{out}");
        assert!(out.contains("conv/4-bit/xpulpnn/pv.qnt"), "{out}");
        assert!(out.contains("conv/4-bit/vector128/pv.qnt"), "{out}");
        assert!(out.contains("cluster-conv/"), "{out}");
    }

    #[test]
    fn lint_races_proves_kernels_race_clean() {
        // Small core count keeps the abstract execution fast in tests;
        // ci.sh runs the full default 8-hart proof.
        let out = dispatch(&v(&["lint", "--races", "--cores", "2"])).unwrap();
        assert!(out.contains("28 kernels race-clean"), "{out}");
        assert!(out.contains("cluster-conv/"), "{out}");

        assert!(dispatch(&v(&["lint", "--races", "--cores", "0"])).is_err());
        assert!(dispatch(&v(&["lint", "--races", "--cores", "9"])).is_err());
        let e = dispatch(&v(&["lint", "--races", "some.s"])).unwrap_err();
        assert!(e.usage, "{}", e.message);
    }

    #[test]
    fn cluster_opts_defaults_and_flags() {
        use xpulpnn::QuantMode::HardwareQnt;
        let a = args("cluster", &[]).unwrap();
        let cfg = paper_kernel(&a).unwrap();
        assert_eq!(a.num::<usize>("--cores", 1..=8).unwrap(), 8);
        assert_eq!(cfg.bits, BitWidth::W4);
        assert_eq!(cfg.isa, KernelIsa::XpulpNN);
        assert_eq!(cfg.quant, HardwareQnt);
        assert_eq!(a.num::<usize>("--threads", 1..).unwrap(), 8); // defaults to --cores

        let a = args(
            "cluster",
            &["--cores", "2", "--bits", "8", "--threads", "1"],
        )
        .unwrap();
        let cfg = paper_kernel(&a).unwrap();
        assert_eq!(a.num::<usize>("--cores", 1..=8).unwrap(), 2);
        assert_eq!(cfg.bits, BitWidth::W8);
        assert_eq!(a.num::<usize>("--threads", 1..).unwrap(), 1);
        assert_ne!(cfg.quant, HardwareQnt); // pv.qnt drops at 8 bits
        let a = args("cluster", &["--cores", "2"]).unwrap();
        assert_eq!(a.num::<usize>("--threads", 1..).unwrap(), 2);

        assert!(usage_error(&["cluster", "--cores", "9"]));
        assert!(usage_error(&["cluster", "--threads", "0"]));
        assert!(args("cluster", &["--bogus"]).is_err());
    }

    #[test]
    fn bench_opts_defaults_and_flags() {
        let a = args("bench", &[]).unwrap();
        assert!(!a.has("--json"));
        assert!(!a.has("--host"));
        assert_eq!(a.num::<u64>("--seed", ..).unwrap(), 42);
        assert_eq!(a.get("--out"), ".");

        let a = args("bench", &["--host"]).unwrap();
        assert!(a.has("--host"));

        let a = args("bench", &["--json", "--seed", "7", "--out", "/tmp/x"]).unwrap();
        assert!(a.has("--json"));
        assert_eq!(a.num::<u64>("--seed", ..).unwrap(), 7);
        assert_eq!(a.get("--out"), "/tmp/x");

        assert!(args("bench", &["--out"]).is_err());
        assert!(args("bench", &["--bogus"]).is_err());
    }

    #[test]
    fn run_cores_executes_spmd_on_the_cluster() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-cli-spmd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spmd.s");
        // Each hart exits with twice its id (mhartid = csr 0xf14).
        std::fs::write(&path, "csrr t0, 0xf14\nslli a0, t0, 1\necall\n").unwrap();
        let p = path.to_str().unwrap().to_string();
        let out = dispatch(&v(&["run", &p, "--cores", "4"])).unwrap();
        assert!(out.contains("exit codes: [0, 2, 4, 6]"), "{out}");
        assert!(out.contains("hart 3"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_smoke_verifies_and_reports_speedup() {
        let out = dispatch(&v(&["cluster", "--cores", "8"])).unwrap();
        assert!(out.contains("8 core(s)"), "{out}");
        assert!(out.contains("matches golden model"), "{out}");
        assert!(out.contains("speedup"), "{out}");
        assert!(out.contains("hart 7"), "{out}");
    }

    #[test]
    fn bench_json_writes_the_artifacts() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-cli-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dispatch(&v(&["bench", "--json", "--out", dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("BENCH_single_core.json"), "{out}");
        assert!(out.contains("BENCH_cluster8.json"), "{out}");
        assert!(out.contains("BENCH_vector.json"), "{out}");
        for (label, cores) in [("single_core", 1), ("cluster8", 8), ("vector", 1)] {
            let j = std::fs::read_to_string(dir.join(format!("BENCH_{label}.json"))).unwrap();
            assert!(j.contains(&format!("\"cores\": {cores}")), "{j}");
            assert!(j.contains("\"macs_per_cycle\""), "{j}");
            assert!(j.contains("\"per_core\""), "{j}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faults_cluster_campaign_smoke() {
        let out = dispatch(&v(&[
            "faults",
            "--cluster",
            "--cores",
            "2",
            "--seed",
            "1",
            "--trials",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("cluster totals: detected="), "{out}");
    }

    #[test]
    fn lint_flags_a_broken_file() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-cli-lint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.s");
        // `a0` and `t0` are both read before any definition.
        std::fs::write(&bad, "sw t0, 0(a0)\necall\n").unwrap();
        let e = dispatch(&v(&["lint", bad.to_str().unwrap()])).unwrap_err();
        assert!(e.message.contains("DF-01"), "{e}");

        let good = dir.join("good.s");
        std::fs::write(&good, "li a0, 0\necall\n").unwrap();
        let out = dispatch(&v(&["lint", good.to_str().unwrap()])).unwrap();
        assert!(out.contains("0 diagnostics"), "{out}");

        assert!(dispatch(&v(&["lint", "--bogus"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_reports_watchdog_exhaustion_gracefully() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-cli-wd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spin.s");
        std::fs::write(&path, "spin:\nj spin\n").unwrap();
        let p = path.to_str().unwrap().to_string();
        let out = dispatch(&v(&["run", &p, "--max-cycles", "100"])).unwrap();
        assert!(out.contains("cycle budget (100) exhausted at pc"), "{out}");
        assert!(out.contains("registers:"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_respects_isa_flag() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-cli-isa-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nn.s");
        std::fs::write(&path, "pv.sdotsp.n a0, a1, a2\necall\n").unwrap();
        let p = path.to_str().unwrap().to_string();
        assert!(dispatch(&v(&["run", &p])).is_ok());
        let e = dispatch(&v(&["run", &p, "--isa", "xpulpv2"])).unwrap_err();
        assert!(e.message.contains("xpulpnn extension"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `--backend vector` turns on the Xrvv unit and `--vlen` scales it:
    /// `vsetvli` grants min(avl, vlmax), so asking for 9 e16 elements
    /// yields 8 at the default VLEN 128 and the full 9 at VLEN 256.
    /// Without the backend flag the same program is an extension fault.
    #[test]
    fn run_backend_vector_enables_the_vector_unit() {
        let dir = std::env::temp_dir().join(format!("xpulpnn-cli-vec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v.s");
        std::fs::write(&path, "li t0, 9\nvsetvli a0, t0, e16\necall\n").unwrap();
        let p = path.to_str().unwrap().to_string();

        let out = dispatch(&v(&["run", &p, "--backend", "vector"])).unwrap();
        assert!(out.contains("exit code : 8"), "{out}");
        let out = dispatch(&v(&["run", &p, "--backend", "vector", "--vlen", "256"])).unwrap();
        assert!(out.contains("exit code : 9"), "{out}");
        let e = dispatch(&v(&["run", &p])).unwrap_err();
        assert!(e.message.contains("xrvv extension"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The vector differential suite is reachable from the CLI and clean
    /// on a small case count (ci.sh runs the full suite in release mode).
    #[test]
    fn conformance_vector_smoke() {
        let out = dispatch(&v(&[
            "conformance",
            "--vector",
            "--cases",
            "25",
            "--seed",
            "1",
        ]))
        .unwrap();
        assert!(
            out.contains("conformance --vector: 25 cases, 0 divergences"),
            "{out}"
        );
    }
}
