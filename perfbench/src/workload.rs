//! What the workloads share: arguments, seeded input generation, the
//! CLI's method mapping, set-up repetition, the serial operation loop
//! and the per-layer sample store.

use crate::checks::{self, Quality};
use crate::probes;
use crate::stats::{self, Tally};
use crate::trace::{self, SpanRecord, Tracer, COUNTERS, OP_SPAN};
use rlp_nn::PolicyFile;
use rlp_sa::SaConfig;
use rlp_thermal::GridThermalSolver;
use rlp_thermal::{
    AnyThermalAnalyzer, CharacterizationOptions, ThermalBackend, ThermalConfig, ThermalError,
    ThermalPrep,
};
use rlplanner::{
    FloorplanOutcome, FloorplanRequest, FloorplanRequestBuilder, Method, PrebuiltThermal,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Minimal-length run for the self-tests: one set-up, the shortest
    /// quality prefix.
    pub smoke: bool,
}

impl Args {
    /// How often set-up is repeated; `setup_s` reports the median.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// The measuring phases of a run: `(seconds, traced)`. An untraced run
    /// measures once; a traced run measures a third of the time untraced
    /// (the baseline of `trace.overhead_pct`) and the rest traced.
    pub fn phases(&self) -> Vec<(f64, bool)> {
        if self.trace {
            vec![
                (self.seconds / 3.0, false),
                (self.seconds * 2.0 / 3.0, true),
            ]
        } else {
            vec![(self.seconds, false)]
        }
    }
}

/// A method family, for time shares and per-family solve metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Sa,
    Gradient,
    Rl,
    Pretrained,
}

impl Family {
    pub const ALL: [Family; 4] = [Family::Sa, Family::Gradient, Family::Rl, Family::Pretrained];

    pub fn label(self) -> &'static str {
        match self {
            Family::Sa => "sa",
            Family::Gradient => "gradient",
            Family::Rl => "rl",
            Family::Pretrained => "pretrained",
        }
    }

    /// The per-layer metric holding this family's solve time (the
    /// outcome's optimisation runtime).
    pub fn solve_metric(self) -> &'static str {
        match self {
            Family::Sa => "sa.solve_ms",
            Family::Gradient => "rlplanner.gradient_solve_ms",
            Family::Rl => "rl.solve_ms",
            Family::Pretrained => "rlplanner.pretrained_solve_ms",
        }
    }

    fn share_metric(self) -> &'static str {
        match self {
            Family::Sa => "mix.sa_share_pct",
            Family::Gradient => "mix.gradient_share_pct",
            Family::Rl => "mix.rl_share_pct",
            Family::Pretrained => "mix.pretrained_share_pct",
        }
    }
}

/// SplitMix64 of `seed` and `index`: the one source of every seeded input.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        #[allow(clippy::cast_possible_truncation)]
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The solver grid every workload uses, as `rlplanner_cli` does.
pub const GRID: usize = 32;

/// `rlplanner_cli`'s fast backend: 32×32 grid, default characterisation.
pub fn fast_backend() -> ThermalBackend {
    ThermalBackend::Fast {
        config: ThermalConfig::with_grid(GRID, GRID),
        characterization: CharacterizationOptions::default(),
    }
}

/// `rlplanner_cli`'s grid backend (`sa-hotspot`).
pub fn grid_backend() -> ThermalBackend {
    ThermalBackend::Grid {
        config: ThermalConfig::with_grid(GRID, GRID),
    }
}

/// `rlplanner_cli`'s SA method (`sa-fast` / `sa-hotspot`).
pub fn cli_sa() -> Method {
    Method::Sa {
        config: SaConfig {
            final_temperature: 1e-6,
            ..SaConfig::default()
        },
    }
}

/// Runs `setup` `reps` times, timing each, and keeps the last state.
/// Earlier states are dropped outside the timed interval.
pub fn repeat_setup<S>(
    reps: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps.max(1) {
        drop(state.take());
        let start = Instant::now();
        let built = setup()?;
        times.push(start.elapsed().as_secs_f64());
        state = Some(built);
    }
    Ok((state.expect("at least one set-up ran"), times))
}

/// One finished operation.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub family: Family,
    /// The operation's timed interval.
    pub wall: Duration,
    /// Whether it ran in the traced phase.
    pub traced: bool,
}

/// Per-layer samples and sums gathered by the traced phase.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    /// Adds one sample of `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Replaces `name` with a single value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.samples.insert(name.to_string(), vec![value]);
    }

    /// The samples of `name` (empty if none).
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Nearest-rank median of `name`; 0 without samples.
    pub fn p50(&self, name: &str) -> f64 {
        stats::median(self.get(name))
    }

    /// Sum of the samples of `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    /// Appends every sample of `other`.
    pub fn merge(&mut self, other: Layers) {
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }

    /// Per-operation self times by span name, in ms.
    pub fn self_times(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.samples
            .iter()
            .filter_map(|(name, v)| Some((name.strip_prefix("self.")?, v.as_slice())))
    }
}

/// Everything a workload run hands back for reporting.
#[derive(Debug, Default)]
pub struct Report {
    /// Wall-clock of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Every measured operation in order.
    pub ops: Vec<OpRecord>,
    /// Seconds spent measuring, per phase (untraced first).
    pub measured_s: Vec<f64>,
    /// Quality of the fixed operation prefix (untraced runs).
    pub quality: Vec<Quality>,
    pub tally: Tally,
    pub layers: Layers,
    /// Wall-clock of a concurrent workload's untraced measuring phase, the
    /// denominator of `ops_per_s`; serial workloads use the sum of their
    /// operations' timed intervals instead.
    pub concurrent_s: Option<f64>,
    /// Recorded spans, per recording thread.
    pub spans: Vec<Vec<SpanRecord>>,
}

impl Report {
    /// Writes the recorded spans as JSON lines.
    pub fn write_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        let threads: Vec<(usize, &[SpanRecord])> = self
            .spans
            .iter()
            .enumerate()
            .map(|(thread, spans)| (thread, spans.as_slice()))
            .collect();
        trace::write_jsonl(path, &threads)
    }

    /// Derives the per-layer metrics that are ratios of sums or of other
    /// metrics, and the method-time shares.
    pub fn finish_layers(&mut self) {
        let l = &mut self.layers;
        let hits = l.sum("sum.cache_hits");
        let lookups = hits + l.sum("sum.cache_misses");
        l.set("thermal.cache_hit_ratio", stats::ratio(hits, lookups));
        let cg = stats::ratio(
            l.sum("sum.linalg.cg.iterations"),
            l.sum("sum.linalg.cg.solves"),
        );
        l.set("linalg.cg_iters_per_solve", cg);
        let proposed = l.sum("sum.sa.moves.proposed");
        let nets = stats::ratio(l.sum("sum.chiplet.incremental.nets_recomputed"), proposed);
        l.set("chiplet.nets_per_move", nets);
        l.set(
            "sa.accept_ratio",
            stats::ratio(l.sum("sum.sa.moves.accepted"), proposed),
        );
        l.set(
            "sa.incremental_ratio",
            stats::ratio(l.sum("sum.sa.incremental"), l.sum("sum.sa.evaluations")),
        );
        let grid_us = l.p50("thermal.grid_solve_ms") * 1e3;
        l.set(
            "thermal.fast_speedup_x",
            stats::ratio(grid_us, l.p50("thermal.fast_eval_us")),
        );

        let total: f64 = self.ops.iter().map(|op| op.wall.as_secs_f64()).sum();
        for family in Family::ALL {
            let spent: f64 = self
                .ops
                .iter()
                .filter(|op| op.family == family)
                .map(|op| op.wall.as_secs_f64())
                .sum();
            self.layers
                .set(family.share_metric(), 100.0 * stats::ratio(spent, total));
        }
        let walls = |traced: bool| -> Vec<f64> {
            self.ops
                .iter()
                .filter(|op| op.traced == traced)
                .map(|op| op.wall.as_secs_f64() * 1e3)
                .collect()
        };
        let (untraced, traced) = (stats::median(&walls(false)), stats::median(&walls(true)));
        self.layers.set("trace.op_p50_ms", traced);
        self.layers.set(
            "trace.overhead_pct",
            100.0 * (stats::ratio(traced, untraced) - 1.0),
        );
    }
}

/// Runs serial operations until the phase has measured `seconds` and
/// completed at least `min_ops`, stopping only at a multiple of
/// `granularity` operations (so a mixed workload always finishes whole
/// schedule cycles). `op` gets the global operation index.
pub fn run_serial(
    seconds: f64,
    min_ops: usize,
    granularity: usize,
    first_index: usize,
    mut op: impl FnMut(usize),
) -> (usize, f64) {
    let start = Instant::now();
    let mut done = 0;
    while done < min_ops
        || !done.is_multiple_of(granularity.max(1))
        || start.elapsed().as_secs_f64() < seconds
    {
        op(first_index + done);
        done += 1;
    }
    (done, start.elapsed().as_secs_f64())
}

/// What [`Serial::check_and_probe`] checks and probes beyond validity.
#[derive(Clone, Copy, Default)]
pub struct CheckOpts<'a> {
    /// Hold the fast model to the `backend_agreement` bound.
    pub agreement: bool,
    /// Take the quality figures (the operation is in the fixed prefix).
    pub quality: bool,
    /// Probe the policy network (RL and pretrained operations).
    pub policy: Option<&'a PolicyFile>,
    /// Seed of the RL probes.
    pub seed: u64,
}

/// The serial workloads' operation context: one tracer, the per-layer
/// store, the failure tally and the operation log.
pub struct Serial {
    pub tracer: Tracer,
    pub layers: Layers,
    pub tally: Tally,
    pub ops: Vec<OpRecord>,
    /// Attribute `rlp-obs` counter deltas to each operation. Off where
    /// operations overlap (the counters are process-wide).
    pub per_op_counters: bool,
}

impl Serial {
    pub fn new(origin: Instant) -> Self {
        Serial {
            tracer: Tracer::new(false, origin),
            layers: Layers::default(),
            tally: Tally::default(),
            ops: Vec::new(),
            per_op_counters: true,
        }
    }

    /// Times `body` as operation `index`. In the traced phase it also
    /// records the spans `body` opens, each span's self time per
    /// operation, the unattributed remainder and the `rlp-obs` counter
    /// deltas. Returns `body`'s value, or `None` (counted as a failed
    /// operation) on error.
    pub fn timed<T>(
        &mut self,
        index: usize,
        family: Family,
        body: impl FnOnce(&mut Tracer) -> Result<T, String>,
    ) -> Option<T> {
        let traced = self.tracer.enabled();
        let before = (traced && self.per_op_counters).then(trace::read_counters);
        let mark = self.tracer.mark();
        self.tracer.set_op(Some(index as u64));
        let start = Instant::now();
        let result = self.tracer.span(OP_SPAN, body);
        let wall = start.elapsed();
        self.tracer.set_op(None);
        self.tally.op(result.is_ok());
        self.ops.push(OpRecord {
            family,
            wall,
            traced,
        });
        if let Some(before) = before {
            let after = trace::read_counters();
            for (name, (a, b)) in COUNTERS.iter().zip(after.iter().zip(before)) {
                self.layers.push(&format!("sum.{name}"), (a - b) as f64);
            }
            let cg_iters = after[1] - before[1];
            self.layers.push("linalg.cg_iters_per_op", cg_iters as f64);
        }
        if traced {
            let self_ns = trace::self_times(self.tracer.spans(), mark);
            let attributed: u64 = self_ns
                .iter()
                .filter(|(name, _)| **name != OP_SPAN)
                .map(|(_, ns)| ns)
                .sum();
            let wall_ns = wall.as_nanos() as f64;
            self.layers.push(
                "trace.unattributed_pct",
                100.0 * (wall_ns - attributed as f64).max(0.0) / wall_ns,
            );
            let characterize = self_ns.get("thermal.characterize").copied().unwrap_or(0);
            self.layers
                .push("thermal.characterize_ms", characterize as f64 / 1e6);
            for (name, ns) in self_ns {
                if name != OP_SPAN {
                    self.layers.push(&format!("self.{name}"), ns as f64 / 1e6);
                }
            }
        }
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                eprintln!("operation {index} ({}) failed: {error}", family.label());
                None
            }
        }
    }

    /// Checks a solved operation (outside its timed interval), returns its
    /// quality when `opts.quality` asks for it, and in the traced phase
    /// records its telemetry and probes its layers.
    pub fn check_and_probe(
        &mut self,
        family: Family,
        solved: &Solved,
        fast: &AnyThermalAnalyzer,
        grid: &GridThermalSolver,
        opts: CheckOpts<'_>,
    ) -> Option<Quality> {
        let system = solved.request.system();
        let outcome = &solved.outcome;
        self.tally.check(checks::outcome_is_valid(system, outcome));
        let mut quality = None;
        if opts.agreement || opts.quality {
            match checks::temperatures(system, &outcome.placement, fast, grid) {
                Ok(temps) => {
                    if opts.agreement {
                        let peak = |t: &[f64]| t.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                        self.tally.check(checks::within_agreement_bound(
                            peak(&temps.fast),
                            peak(&temps.grid),
                            grid.config().ambient_c,
                        ));
                    }
                    if opts.quality {
                        let q = checks::quality(outcome, &temps);
                        self.tally.check(q.mae_k.is_finite());
                        quality = Some(q);
                    }
                }
                Err(error) => {
                    eprintln!("check failed: {error}");
                    self.tally.check(false);
                }
            }
        }
        if self.tracer.enabled() {
            record_outcome(&mut self.layers, family, outcome);
            let target = probes::Target {
                system,
                request: &solved.request,
                outcome,
                fast,
                grid,
            };
            let mut probed = probes::layers(&mut self.tracer, &mut self.layers, &target);
            if let Some(file) = opts.policy {
                let rl = family == Family::Rl;
                probed = probed.and_then(|()| {
                    probes::policy(
                        &mut self.tracer,
                        &mut self.layers,
                        system,
                        fast,
                        file,
                        rl,
                        opts.seed,
                    )
                });
            }
            if let Err(error) = probed {
                eprintln!("probe failed: {error}");
                self.tally.check(false);
            }
        }
        quality
    }

    pub fn into_report(
        self,
        setup_s: Vec<f64>,
        measured_s: Vec<f64>,
        quality: Vec<Quality>,
    ) -> Report {
        Report {
            setup_s,
            ops: self.ops,
            measured_s,
            quality,
            tally: self.tally,
            layers: self.layers,
            concurrent_s: None,
            spans: vec![self.tracer.spans().to_vec()],
        }
    }
}

/// A solved serial operation: the analyzer it ran against, the request
/// and the outcome.
pub struct Solved {
    pub analyzer: Arc<AnyThermalAnalyzer>,
    pub request: FloorplanRequest,
    pub outcome: FloorplanOutcome,
}

/// The body of a serial operation: obtain the analyzer (`prepare`, inside
/// a span called `prep_span`), attach it to the request as a
/// [`PrebuiltThermal`], and solve. With a fresh build this is exactly the
/// work of a plain `FloorplanRequest::solve()`, split at the one seam the
/// facade exposes so the trace can attribute it.
pub fn solve_op(
    tracer: &mut Tracer,
    prep_span: &'static str,
    prepare: impl FnOnce() -> Result<(AnyThermalAnalyzer, ThermalPrep), ThermalError>,
    backend: &ThermalBackend,
    builder: FloorplanRequestBuilder,
) -> Result<Solved, String> {
    let (analyzer, prep) = tracer
        .span(prep_span, |_| prepare())
        .map_err(|e| format!("thermal backend: {e}"))?;
    let analyzer = Arc::new(analyzer);
    let request = tracer
        .span("rlplanner.request_build", |_| {
            builder
                .prebuilt_thermal(PrebuiltThermal::new(
                    backend.clone(),
                    Arc::clone(&analyzer),
                    prep,
                ))
                .build()
        })
        .map_err(|e| format!("invalid request: {e}"))?;
    let outcome = tracer
        .span("rlplanner.solve", |_| request.solve())
        .map_err(|e| format!("solve failed: {e}"))?;
    Ok(Solved {
        analyzer,
        request,
        outcome,
    })
}

/// Per-family solve time, SA evaluation split, RL throughput and thermal
/// preparation counts of one outcome.
pub fn record_outcome(layers: &mut Layers, family: Family, outcome: &rlplanner::FloorplanOutcome) {
    let runtime_ms = outcome.runtime.as_secs_f64() * 1e3;
    layers.push(family.solve_metric(), runtime_ms);
    if family == Family::Sa {
        let evaluations = outcome.evaluation.counts.total() as f64;
        layers.push("sa.eval_us", stats::ratio(runtime_ms * 1e3, evaluations));
        layers.push("sum.sa.evaluations", evaluations);
        layers.push(
            "sum.sa.incremental",
            outcome.evaluation.counts.incremental as f64,
        );
    }
    if let Some(training) = outcome.training {
        layers.push("rl.episodes_per_s", training.episodes_per_s);
    }
    let prep = outcome.thermal_prep;
    layers.push("sum.cache_hits", prep.cache_hits as f64);
    layers.push("sum.cache_misses", prep.cache_misses as f64);
    layers.push("thermal.characterize_count", prep.cache_misses as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_draws_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(8, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
        let mut a: Vec<u32> = (0..8).collect();
        let mut b = a.clone();
        shuffle(&mut a, 5);
        shuffle(&mut b, 5);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..8).collect();
        shuffle(&mut c, 6);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn run_serial_honours_min_ops_and_granularity() {
        let mut seen = Vec::new();
        let (done, _) = run_serial(0.0, 5, 4, 10, |i| seen.push(i));
        assert_eq!(done, 8);
        assert_eq!(seen, (10..18).collect::<Vec<_>>());
    }

    #[test]
    fn repeat_setup_times_every_repetition_and_keeps_the_last() {
        let mut n = 0;
        let (state, times) = repeat_setup(3, || {
            n += 1;
            Ok::<_, String>(n)
        })
        .unwrap();
        assert_eq!(state, 3);
        assert_eq!(times.len(), 3);
    }
}
