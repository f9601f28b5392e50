//! End-to-end benchmark of the Pure runtime.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Every workload runs two ranks in `ProgressMode::Cooperative` through the
//! public runtime API and repeats rounds of six closed-loop phases (8 B and
//! 64 KiB ping-pong, an 8 B stream, 8 B and 64 KiB allreduce, CoMD), one
//! launch per phase, until `--seconds` are spent. With `--trace 0` the run
//! is untraced and yields the end-to-end metrics; with `--trace 1` it also
//! runs a traced pass, the MPI-style baseline and isolated layer probes,
//! and yields the per-layer ladder. See `README.md` next to this crate.
//!
//! Progress lines start with `#`; the last line is one JSON object.

mod mix;
mod probes;
mod stats;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use miniapps::comd::{ComdParams, ComdResult, Imbalance};
use mpi_baseline::{mpi_launch_map, MpiConfig};
use netsim::{Backend, CoalescePlan, NetConfig};
use pure_core::{launch_map, Communicator, Config, Counter, LaunchReport, ProgressMode};

use mix::{Inputs, Phase, PhaseOut, Plan};
use stats::{median, quantile, ratio, Metrics, Reservoir};
use trace::{Recorder, Span};

/// One benchmark workload: a topology, a wire and the op counts of a round.
struct Workload {
    /// 1: both ranks share a node; 2: one rank per node.
    nodes: usize,
    backend: Backend,
    coalesce: bool,
    plan: Plan,
}

/// A small balanced CoMD run: the application leg of the messaging
/// workloads.
const COMD_SMALL: ComdParams = ComdParams {
    cells_per_rank: [3, 3, 3],
    atoms_per_cell: 2,
    steps: 40,
    dt: 1e-3,
    energy_every: 5,
    extra_work: 0,
    imbalance: Imbalance::None,
    chunks: 16,
    seed: 0,
};

fn mix_plan(rtt8: usize, rtt64k: usize, windows: usize, ar8: usize, ar64k: usize) -> Plan {
    Plan {
        rtt8,
        rtt64k,
        windows,
        ar8,
        ar64k,
        comd: COMD_SMALL,
        comd_tasks: false,
    }
}

fn workload(name: &str) -> Option<Workload> {
    let w = match name {
        "intranode" => Workload {
            nodes: 1,
            backend: Backend::Sim,
            coalesce: false,
            plan: mix_plan(4000, 1000, 20, 4000, 1000),
        },
        "crossnode_sim" => Workload {
            nodes: 2,
            backend: Backend::Sim,
            coalesce: false,
            plan: mix_plan(2000, 400, 10, 2000, 400),
        },
        "crossnode_tcp_coalesced" => Workload {
            nodes: 2,
            backend: Backend::Tcp,
            coalesce: true,
            plan: mix_plan(1000, 200, 10, 1000, 200),
        },
        "comd_tasks" => Workload {
            nodes: 1,
            backend: Backend::Sim,
            coalesce: false,
            plan: Plan {
                comd: ComdParams {
                    cells_per_rank: [4, 4, 4],
                    atoms_per_cell: 2,
                    steps: 80,
                    energy_every: 5,
                    extra_work: 100,
                    imbalance: Imbalance::MovingSphere {
                        radius: 0.5,
                        speed: 5.0,
                    },
                    ..COMD_SMALL
                },
                comd_tasks: true,
                ..mix_plan(1000, 200, 4, 1000, 200)
            },
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    fn net(&self) -> NetConfig {
        let net = NetConfig::default().with_backend(self.backend);
        if self.coalesce {
            net.with_coalescing(CoalescePlan::default())
        } else {
            net
        }
    }

    fn ranks_per_node(&self) -> usize {
        if self.nodes == 2 {
            1
        } else {
            0
        }
    }

    /// Two ranks, default knobs, cooperative progress, no deadline: the
    /// timed runs stay on the runtime's normal hot path.
    fn pure_cfg(&self) -> Config {
        Config::new(2)
            .with_ranks_per_node(self.ranks_per_node())
            .with_net(self.net())
            .with_progress_mode(ProgressMode::Cooperative)
    }

    /// The baseline on the same topology and backend. It runs uncoalesced:
    /// it never drives `NodeEndpoint::progress`, so an aged coalesce
    /// buffer would never flush and its last message would never arrive.
    fn mpi_cfg(&self) -> MpiConfig {
        let mut cfg = MpiConfig::new(2).with_ranks_per_node(self.ranks_per_node());
        cfg.net = NetConfig::default().with_backend(self.backend);
        cfg
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Runtime {
    Pure,
    Mpi,
}

/// What one launch of one phase brought back.
struct LaunchOut {
    /// Per rank: the phase's outputs and the rank's spans.
    ranks: Vec<(PhaseOut, Vec<Span>)>,
    report: Option<LaunchReport>,
}

/// The rank body of one launch, shared by both runtimes.
struct Body<'a> {
    phase: Phase,
    plan: &'a Plan,
    inp: &'a Inputs,
    trace: bool,
    epoch: Instant,
    /// Span id of the launch.
    launch: u64,
}

impl Body<'_> {
    /// Run the phase on this rank, after a barrier that lines the ranks up.
    fn run<C: Communicator>(&self, comm: &C) -> (PhaseOut, Vec<Span>) {
        let mut rec = Recorder::rank(self.trace, self.epoch, comm.rank() as u32, self.launch);
        comm.barrier();
        let out = mix::run_phase(comm, self.phase, self.plan, self.inp, &mut rec, self.launch);
        (out, rec.into_spans())
    }
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Run one launch of `phase`; a panic in any rank is caught and returned.
fn launch_phase(
    w: &Workload,
    rt: Runtime,
    phase: Phase,
    inp: &Inputs,
    rec: &mut Recorder,
) -> Result<LaunchOut, String> {
    let span = rec.begin("runtime.launch", 0, 0);
    let body = Body {
        phase,
        plan: &w.plan,
        inp,
        trace: rec.enabled(),
        epoch: rec.epoch(),
        launch: span.id(),
    };
    let result = catch_unwind(AssertUnwindSafe(|| match rt {
        Runtime::Pure => {
            let (report, ranks) = launch_map(w.pure_cfg(), |ctx| body.run(ctx.world()));
            (Some(report), ranks)
        }
        Runtime::Mpi => {
            let (_, ranks) = mpi_launch_map(w.mpi_cfg(), |ctx| body.run(ctx.world()));
            (None, ranks)
        }
    }));
    rec.end(span);
    let (report, ranks) = result.map_err(panic_text)?;
    Ok(LaunchOut { ranks, report })
}

/// Op accounting across a whole run.
#[derive(Default)]
struct Account {
    attempted: u64,
    failed: u64,
    causes: Vec<String>,
}

impl Account {
    fn fail(&mut self, ops: u64, cause: String) {
        self.failed += ops;
        if self.causes.len() < 16 {
            self.causes.push(cause);
        }
    }
}

/// Samples kept per phase: percentiles come from a uniform subsample of
/// this size, so memory does not grow with the op rate.
const RESERVOIR: usize = 100_000;

/// Empty launches timed after every round of an untraced Pure pass; their
/// median is `setup_s`.
const SETUP_BATCH: u64 = 16;

/// Everything one pass (a sequence of rounds on one runtime) measured.
/// Reports, CoMD results and spans are kept by traced passes only.
struct Pass {
    traced: bool,
    /// Rank 0's timed samples, per phase.
    samples: Vec<Reservoir>,
    /// Set-up times of the pass's empty launches.
    setup_s: Vec<f64>,
    reports: Vec<(Phase, LaunchReport)>,
    /// Per CoMD launch, each rank's result.
    comd: Vec<Vec<ComdResult>>,
    spans: Vec<Span>,
    ops: u64,
}

impl Pass {
    fn new(traced: bool, seed: u64) -> Self {
        Self {
            traced,
            samples: (0..Phase::ALL.len())
                .map(|p| Reservoir::new(RESERVOIR, mix::mix64(seed ^ p as u64)))
                .collect(),
            setup_s: Vec::new(),
            reports: Vec::new(),
            comd: Vec::new(),
            spans: Vec::new(),
            ops: 0,
        }
    }

    fn of(&self, phase: Phase) -> &[f64] {
        self.samples[phase as usize].values()
    }

    /// Timed ops (or windows, or runs) of `phase`.
    fn timed(&self, phase: Phase) -> usize {
        self.samples[phase as usize].seen()
    }
}

/// CoMD results must match the reference run rank by rank: atoms and
/// checksum exactly, energies to the tolerance the repository's own
/// cross-runtime tests use (summation order may differ between runtimes).
fn comd_matches(got: &ComdResult, want: &ComdResult) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
    got.atoms == want.atoms
        && got.checksum == want.checksum
        && got.energy_trace.len() == want.energy_trace.len()
        && got
            .energy_trace
            .iter()
            .zip(&want.energy_trace)
            .all(|(g, w)| close(g.0, w.0) && close(g.1, w.1))
}

struct Ctx<'a> {
    w: &'a Workload,
    inp: &'a Inputs,
    reference: &'a [ComdResult],
    /// Time origin of every span of the run.
    epoch: Instant,
    acct: Account,
}

impl Ctx<'_> {
    /// Run one launch of `phase` and fold it into `pass`, checking every
    /// output. `#begin`/`#end` lines let the outer watchdog account a hang.
    fn launch(&mut self, rt: Runtime, phase: Phase, rec: &mut Recorder, pass: &mut Pass) {
        let ops = self.w.plan.ops(phase);
        println!("#begin {} {ops}", phase.name());
        let failed_before = self.acct.failed;
        self.acct.attempted += ops;
        pass.ops += ops;
        match launch_phase(self.w, rt, phase, self.inp, rec) {
            Err(msg) => self
                .acct
                .fail(ops, format!("{}: launch panicked: {msg}", phase.name())),
            Ok(out) => {
                let mut bad: Vec<u64> = out.ranks.iter().flat_map(|(o, _)| o.bad.clone()).collect();
                bad.sort_unstable();
                bad.dedup();
                if let Some(&first) = bad.first() {
                    let cause = format!(
                        "{}: {} op(s) failed their check, first op {first}",
                        phase.name(),
                        bad.len()
                    );
                    self.acct.fail(bad.len() as u64, cause);
                }
                if phase == Phase::Comd {
                    let results: Vec<ComdResult> = out
                        .ranks
                        .iter()
                        .filter_map(|(o, _)| o.comd.clone())
                        .collect();
                    if results.len() != self.reference.len()
                        || !results
                            .iter()
                            .zip(self.reference)
                            .all(|(g, r)| comd_matches(g, r))
                    {
                        self.acct
                            .fail(1, "comd: the run differs from the reference run".into());
                    }
                    if pass.traced {
                        pass.comd.push(results);
                    }
                }
                let stamps: Vec<&[(u64, u64)]> =
                    out.ranks.iter().map(|(o, _)| &o.stamps[..]).collect();
                pass.samples[phase as usize].extend(mix::collective_latencies(&stamps));
                let mut ranks = out.ranks.into_iter();
                if let Some((rank0, spans)) = ranks.next() {
                    pass.samples[phase as usize].extend(rank0.samples);
                    pass.spans.extend(spans);
                }
                for (_, spans) in ranks {
                    pass.spans.extend(spans);
                }
                if let Some(report) = out.report.filter(|_| pass.traced) {
                    pass.reports.push((phase, report));
                }
            }
        }
        println!("#end {}", self.acct.failed - failed_before);
    }

    /// Time a batch of back-to-back launches whose body is one barrier,
    /// each from the `launch_map` call until the barrier returns on rank 0.
    /// Launching alone, they are not charged for what the phase before
    /// them left behind.
    fn setup_batch(&mut self, pass: &mut Pass) {
        println!("#begin setup {SETUP_BATCH}");
        let failed_before = self.acct.failed;
        self.acct.attempted += SETUP_BATCH;
        for _ in 0..SETUP_BATCH {
            let cfg = self.w.pure_cfg();
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                launch_map(cfg, |ctx| {
                    ctx.world().barrier();
                    t0.elapsed().as_secs_f64()
                })
            }));
            match result {
                Ok((_, secs)) => pass.setup_s.push(secs[0]),
                Err(e) => self
                    .acct
                    .fail(1, format!("setup: launch panicked: {}", panic_text(e))),
            }
        }
        println!("#end {}", self.acct.failed - failed_before);
    }

    /// Repeat rounds of every phase until `budget` is spent and at least
    /// `min_rounds` ran. An untraced Pure pass also times a set-up batch
    /// after every round.
    fn pass(&mut self, rt: Runtime, trace: bool, budget: Duration, min_rounds: usize) -> Pass {
        let mut pass = Pass::new(trace, self.inp.comd.seed);
        let mut rec = Recorder::driver(trace, self.epoch);
        let t_end = Instant::now() + budget;
        let mut rounds = 0;
        while rounds < min_rounds || Instant::now() < t_end {
            for phase in Phase::ALL {
                self.launch(rt, phase, &mut rec, &mut pass);
            }
            if rt == Runtime::Pure && !trace {
                self.setup_batch(&mut pass);
            }
            rounds += 1;
        }
        pass.spans.extend(rec.into_spans());
        pass
    }
}

/// The end-to-end candidates of a pass, all from rank 0's samples.
fn end_to_end(pass: &Pass, plan: &Plan, m: &mut Metrics) {
    let us = |xs: &[f64], q: f64| quantile(xs, q) / 1e3;
    let n = |p: Phase| pass.timed(p);
    m.put("setup_s", median(&pass.setup_s), "s", pass.setup_s.len());
    m.put(
        "rtt_8B_p50_us",
        us(pass.of(Phase::Rtt8), 0.5),
        "us",
        n(Phase::Rtt8),
    );
    m.put(
        "rtt_8B_p99_us",
        us(pass.of(Phase::Rtt8), 0.99),
        "us",
        n(Phase::Rtt8),
    );
    m.put(
        "rtt_64KiB_p50_us",
        us(pass.of(Phase::Rtt64k), 0.5),
        "us",
        n(Phase::Rtt64k),
    );
    m.put(
        "stream_8B_msgs_per_s",
        median(pass.of(Phase::Stream)),
        "1/s",
        n(Phase::Stream),
    );
    m.put(
        "allreduce_8B_p50_us",
        us(pass.of(Phase::Ar8), 0.5),
        "us",
        n(Phase::Ar8),
    );
    m.put(
        "allreduce_8B_p99_us",
        us(pass.of(Phase::Ar8), 0.99),
        "us",
        n(Phase::Ar8),
    );
    m.put(
        "allreduce_64KiB_p50_us",
        us(pass.of(Phase::Ar64k), 0.5),
        "us",
        n(Phase::Ar64k),
    );
    let steps = plan.comd.steps as f64;
    let rates: Vec<f64> = pass
        .of(Phase::Comd)
        .iter()
        .map(|ns| steps * 1e9 / ns)
        .collect();
    m.put("comd_steps_per_s", median(&rates), "1/s", n(Phase::Comd));
}

/// Sum of `f` over the reports of the launches of `phases`.
fn total(pass: &Pass, phases: &[Phase], f: impl Fn(&LaunchReport) -> u64) -> f64 {
    pass.reports
        .iter()
        .filter(|(p, _)| phases.contains(p))
        .map(|(_, r)| f(r))
        .sum::<u64>() as f64
}

fn launches(pass: &Pass, phase: Phase) -> usize {
    pass.reports.iter().filter(|(p, _)| *p == phase).count()
}

/// Counter-derived ratios from `LaunchReport.stats` of the pass.
fn counter_metrics(w: &Workload, pass: &Pass, m: &mut Metrics) {
    use Phase::*;
    let all = &Phase::ALL;
    let c = |phases: &[Phase], k: Counter| total(pass, phases, |r| r.stats.total(k));
    let enq = |phases: &[Phase]| c(phases, Counter::PbqEnq) + c(phases, Counter::PbqSendBatchMsgs);
    m.put(
        "pbq.full_stalls_per_msg",
        ratio(c(&[Stream], Counter::PbqFullStall), enq(&[Stream])),
        "ratio",
        1,
    );
    m.put(
        "pbq.index_refresh_per_enq",
        ratio(c(all, Counter::PbqIndexRefresh), enq(all)),
        "ratio",
        1,
    );
    m.put("envelope.cancels", c(all, Counter::EnvCancel), "count", 1);

    // Collective ops issued by the 8 B allreduce launches: the timed and
    // warm-up allreduces plus the set-up barrier.
    let ar8_ops = (launches(pass, Ar8) * (mix::WARM + w.plan.ar8 + 1)) as f64;
    m.put(
        "collectives.sptd_rounds_per_op",
        ratio(c(&[Ar8], Counter::SptdRound), ar8_ops),
        "ratio",
        1,
    );
    m.put(
        "collectives.leader_combines_per_op",
        ratio(c(&[Ar8], Counter::SptdLeaderCombine), ar8_ops),
        "ratio",
        1,
    );
    // Flat leader exchanges send one wire message per leader per round;
    // hierarchical shapes also count their rounds in `coll_tree_rounds`.
    let leaders = if w.nodes > 1 { w.nodes as f64 } else { 0.0 };
    let ar8_msgs = total(pass, &[Ar8], |r| r.net_traffic.0);
    let tree_rounds = c(&[Ar8], Counter::CollTreeRounds);
    m.put(
        "internode.rounds_per_op",
        ratio(ar8_msgs, ar8_ops * leaders) + ratio(tree_rounds, ar8_ops * leaders),
        "ratio",
        1,
    );

    let attempts = c(&[Comd], Counter::StealAttempt);
    let comd_launches = pass.comd.len() as f64;
    m.put(
        "task.steal_attempts",
        ratio(attempts, comd_launches),
        "count",
        pass.comd.len(),
    );
    m.put(
        "task.steal_success_ratio",
        ratio(c(&[Comd], Counter::Steal), attempts),
        "ratio",
        1,
    );
    let stolen = total(pass, &[Comd], |r| r.total_chunks_stolen());
    let owned = total(pass, &[Comd], |r| {
        r.per_rank.iter().map(|s| s.chunks_owned).sum()
    });
    m.put(
        "task.stolen_chunk_share",
        ratio(stolen, stolen + owned),
        "ratio",
        1,
    );
    m.put(
        "ssw.yields_per_op",
        ratio(c(all, Counter::SswYield), pass.ops as f64),
        "ratio",
        1,
    );
    let imbalance: Vec<f64> = pass
        .comd
        .iter()
        .map(|runs| {
            let pairs: Vec<f64> = runs.iter().map(|r| r.my_pairs as f64).collect();
            let mean = pairs.iter().sum::<f64>() / pairs.len() as f64;
            ratio(pairs.iter().cloned().fold(0.0, f64::max), mean)
        })
        .collect();
    m.put(
        "comd.pair_imbalance",
        median(&imbalance),
        "ratio",
        imbalance.len(),
    );

    let p2p = &[Rtt8, Stream];
    let msgs = total(pass, p2p, |r| r.net_traffic.0);
    m.put(
        "netsim.frames_per_msg",
        ratio(total(pass, p2p, |r| r.stats.net_frames), msgs),
        "ratio",
        1,
    );
    m.put(
        "netsim.polls_per_msg",
        ratio(total(pass, p2p, |r| r.stats.net_progress_polls), msgs),
        "ratio",
        1,
    );
    m.put(
        "netsim.memcpy_bytes_per_msg",
        ratio(total(pass, p2p, |r| r.stats.net_memcpy_bytes), msgs),
        "B",
        1,
    );
    let hits = total(pass, all, |r| r.stats.pool_hits);
    let misses = total(pass, all, |r| r.stats.pool_misses);
    m.put("pool.hit_ratio", ratio(hits, hits + misses), "ratio", 1);
    let flushes = total(pass, p2p, |r| r.stats.net_coalesce_flushes);
    m.put(
        "coalesce.subframes_per_flush",
        ratio(total(pass, p2p, |r| r.stats.net_coalesced), flushes),
        "ratio",
        1,
    );
    m.put("coalesce.flushes_per_msg", ratio(flushes, msgs), "ratio", 1);
}

/// Span-derived metrics of the traced pass (rank 0 unless named).
fn span_metrics(traced: &Pass, m: &mut Metrics) {
    let p50 = |name: &str, tid: u32| {
        let d = trace::durations(&traced.spans, name, tid);
        (median(&d), d.len())
    };
    for (metric, span, tid) in [
        ("msg.send_8B_ns_p50", "msg.send.8B", 0),
        ("msg.recv_8B_ns_p50", "msg.recv.8B", 0),
        ("msg.send_64KiB_ns_p50", "msg.send.64KiB", 0),
        ("msg.recv_64KiB_ns_p50", "msg.recv.64KiB", 0),
        (
            "collectives.allreduce_8B_ns_p50.rank0",
            "collectives.allreduce.8B",
            0,
        ),
        (
            "collectives.allreduce_8B_ns_p50.rank1",
            "collectives.allreduce.8B",
            1,
        ),
    ] {
        let (v, n) = p50(span, tid);
        m.put(metric, v, "ns", n);
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let name = get("--workload").ok_or("missing --workload")?;
    let workload = workload(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed").ok_or("missing --seed")?;
    let seed = seed.parse().map_err(|_| format!("bad --seed {seed:?}"))?;
    let seconds = get("--seconds").ok_or("missing --seconds")?;
    let seconds: f64 = seconds
        .parse()
        .map_err(|_| format!("bad --seconds {seconds:?}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad --trace {t:?}")),
    };
    Ok(Args {
        name,
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    let epoch = Instant::now();

    // ---- Set-up (untimed): inputs, the CoMD reference, a warm round. ----
    let inp = Inputs::new(args.seed, w.plan.comd);
    let comd_params = inp.comd;
    let (_, reference) = mpi_launch_map(
        MpiConfig::new(2).with_ranks_per_node(w.ranks_per_node()),
        |ctx| miniapps::comd::run_comd(ctx.world(), &comd_params, false),
    );
    let mut ctx = Ctx {
        w,
        inp: &inp,
        reference: &reference,
        epoch,
        acct: Account::default(),
    };
    ctx.pass(Runtime::Pure, false, Duration::ZERO, 1);

    let budget = Duration::from_secs_f64(args.seconds);
    let mut m = Metrics::default();
    if !args.trace {
        let pass = ctx.pass(Runtime::Pure, false, budget, 1);
        end_to_end(&pass, &w.plan, &mut m);
    } else {
        let share = |f: f64| budget.mul_f64(f);
        // The traced pass keeps every span in memory: a fixed two rounds
        // bound it, whatever the op rate.
        let untraced = ctx.pass(Runtime::Pure, false, share(0.45), 1);
        let traced = ctx.pass(Runtime::Pure, true, Duration::ZERO, 2);
        let mpi = ctx.pass(Runtime::Mpi, false, share(0.35), 1);

        end_to_end(&untraced, &w.plan, &mut m);
        let mut t = Metrics::default();
        end_to_end(&traced, &w.plan, &mut t);
        let mut b = Metrics::default();
        end_to_end(&mpi, &w.plan, &mut b);

        let probe = share(0.2 / 4.0);
        let cfg = w.pure_cfg();
        m.put(
            "runtime.launch_empty_us",
            probes::launch_empty_us(&cfg, probe),
            "us",
            1,
        );
        m.put("pbq.op_ns", probes::pbq_op_ns(&cfg, probe), "ns", 1);
        m.put(
            "envelope.rendezvous_64KiB_ns",
            probes::envelope_rendezvous_ns(&cfg, probe),
            "ns",
            1,
        );
        // The raw endpoint rung exists only where ranks talk over the wire.
        let endpoint_rtt = if w.nodes == 2 {
            probes::endpoint_rtt_8b_us(w.net(), probe)
        } else {
            0.0
        };
        m.put("netsim.endpoint_rtt_8B_us", endpoint_rtt, "us", 1);
        counter_metrics(w, &traced, &mut m);
        span_metrics(&traced, &mut m);

        let e = |x: &Metrics, k: &str| x.get(k).unwrap_or(0.0);
        m.put(
            "trace.rtt_8B_p50_us",
            e(&t, "rtt_8B_p50_us"),
            "us",
            traced.timed(Phase::Rtt8),
        );
        let p50s = [
            "rtt_8B_p50_us",
            "rtt_64KiB_p50_us",
            "allreduce_8B_p50_us",
            "allreduce_64KiB_p50_us",
        ];
        let log_sum: f64 = p50s.iter().map(|k| ratio(e(&t, k), e(&m, k)).ln()).sum();
        m.put(
            "trace.overhead_ratio",
            (log_sum / p50s.len() as f64).exp(),
            "ratio",
            p50s.len(),
        );
        for (k, unit) in [
            ("rtt_8B_p50_us", "us"),
            ("allreduce_8B_p50_us", "us"),
            ("comd_steps_per_s", "1/s"),
        ] {
            m.put(format!("mpi_baseline.{k}"), e(&b, k), unit, 1);
            m.put(
                format!("pure_over_mpi.{k}"),
                ratio(e(&m, k), e(&b, k)),
                "ratio",
                1,
            );
        }

        let trace_out = format!("perfbench/out/trace-{}.json", args.name);
        let _ = std::fs::create_dir_all("perfbench/out");
        let mut spans = traced.spans;
        spans.sort_by_key(|s| s.start_ns);
        match std::fs::write(&trace_out, trace::chrome_json(&spans)) {
            Ok(()) => println!("# trace: {} spans -> {trace_out}", spans.len()),
            Err(e) => println!("# trace: not written to {trace_out}: {e}"),
        }
    }
    let acct = &ctx.acct;
    m.put(
        "ops_failed_ratio",
        ratio(acct.failed as f64, acct.attempted as f64),
        "ratio",
        acct.attempted as usize,
    );
    m.put("peak_rss_mib", peak_rss_mib(), "MiB", 1);

    let causes: Vec<String> = acct.causes.iter().map(|c| format!("{c:?}")).collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"causes\": [{}], \"metrics\": {}}}",
        acct.failed == 0,
        acct.attempted,
        acct.failed,
        causes.join(", "),
        m.to_json()
    );
}
