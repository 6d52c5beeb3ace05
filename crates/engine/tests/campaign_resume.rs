//! Integration tests for fail-soft streaming and resume.
//!
//! The acceptance scenario: a streamed campaign is killed mid-flight (here:
//! a sink that starts erroring after K records), restarted against the same
//! file, and the merged stream must contain the same deterministic results
//! as an uninterrupted run — record for record. Volatile telemetry
//! (runtimes, cache hit/miss splits, characterisation time) legitimately
//! differs between executions and sits in each embedded outcome's `timing`
//! member, so the comparison drops that member first; everything else must
//! match byte-for-byte after the canonical re-render.

use rlp_chiplet::{Chiplet, ChipletSystem, Net};
use rlp_engine::{
    campaign_json, CampaignEngine, CampaignError, CampaignMethod, CampaignSpec, JsonlSink,
    MemorySink, RunEvent, RunSink,
};
use rlp_obs::json::Value;
use rlp_sa::SaConfig;
use rlp_thermal::{ThermalBackend, ThermalConfig};
use rlplanner::report::TIMING;
use rlplanner::{Budget, FloorplanRequest, FloorplanRequestBuilder, Method};
use std::io;
use std::path::PathBuf;

fn tiny_system() -> ChipletSystem {
    let mut sys = ChipletSystem::new("resume-demo", 24.0, 24.0);
    let a = sys.add_chiplet(Chiplet::new("a", 6.0, 6.0, 20.0));
    let b = sys.add_chiplet(Chiplet::new("b", 5.0, 5.0, 10.0));
    let c = sys.add_chiplet(Chiplet::new("c", 4.0, 4.0, 8.0));
    sys.add_net(Net::new(a, b, 32));
    sys.add_net(Net::new(b, c, 16));
    sys
}

fn grid_backend() -> ThermalBackend {
    ThermalBackend::Grid {
        config: ThermalConfig::with_grid(8, 8),
    }
}

/// The base request of [`serial_spec`]: twelve evaluations per run.
fn base() -> FloorplanRequestBuilder {
    FloorplanRequest::builder().budget(Budget::Evaluations(12))
}

/// A 2-method × 2-seed serial grid (4 runs) on `base`, whose first column
/// `sa` anneals with `sa`: small enough to execute many times per test,
/// serial so the stream order is the grid order.
fn spec_with(base: FloorplanRequestBuilder, sa: SaConfig, seeds: [u64; 2]) -> CampaignSpec {
    CampaignSpec::builder()
        .base(base)
        .system(tiny_system())
        .method(CampaignMethod::new(
            "sa",
            Method::Sa { config: sa },
            grid_backend(),
        ))
        .method(CampaignMethod::new(
            "sa-slow-cool",
            Method::Sa {
                config: SaConfig {
                    cooling_rate: 0.9,
                    ..SaConfig::default()
                },
            },
            grid_backend(),
        ))
        .seeds(seeds)
        .parallelism(1)
        .build()
        .expect("valid spec")
}

fn serial_spec() -> CampaignSpec {
    spec_with(base(), SaConfig::default(), [1, 2])
}

/// Simulates a campaign killed mid-flight: persists records until
/// `fail_after` have been written, then errors on every further emit.
struct FailingSink {
    inner: MemorySink,
    fail_after: usize,
}

impl RunSink for FailingSink {
    fn emit(&mut self, event: &RunEvent<'_>) -> io::Result<()> {
        if self.inner.lines().len() >= self.fail_after {
            return Err(io::Error::other("disk gone"));
        }
        self.inner.emit(event)
    }
}

/// The deterministic projection of a stream line or campaign document:
/// parse, drop the `timing` members, re-render canonically.
fn deterministic_projection(doc: &str) -> String {
    Value::parse(doc)
        .expect("documents are valid JSON")
        .without(TIMING)
        .render()
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rlp-engine-{}-{name}.jsonl", std::process::id()))
}

#[test]
fn sink_error_aborts_the_campaign_but_keeps_persisted_records() {
    let spec = serial_spec();
    let mut sink = FailingSink {
        inner: MemorySink::new(),
        fail_after: 2,
    };
    let err = CampaignEngine::new()
        .run_streamed(&spec, &mut sink)
        .expect_err("sink failure must abort the campaign");
    match err {
        CampaignError::Sink { index, ref reason } => {
            assert_eq!(index, 2, "the third record is the one that failed");
            assert!(reason.contains("disk gone"), "got: {reason}");
        }
        other => panic!("expected a sink error, got {other:?}"),
    }
    // Everything emitted before the failure is intact and well-formed.
    assert_eq!(sink.inner.lines().len(), 2);
    for (expected_index, line) in sink.inner.lines().iter().enumerate() {
        let value = Value::parse(line).expect("persisted lines are valid JSON");
        assert_eq!(
            value.get("schema").and_then(Value::as_str),
            Some("rlplanner.campaign-run/v1")
        );
        assert_eq!(
            value.get("index").and_then(Value::as_f64),
            Some(expected_index as f64)
        );
        assert_eq!(value.get("status").and_then(Value::as_str), Some("ok"));
    }
}

#[test]
fn truncated_stream_resumes_to_the_uninterrupted_result() {
    let spec = serial_spec();
    let engine = CampaignEngine::new();

    // The reference: one uninterrupted streamed campaign.
    let mut reference_sink = MemorySink::new();
    let reference = engine
        .run_streamed(&spec, &mut reference_sink)
        .expect("uninterrupted campaign");
    assert_eq!(reference_sink.lines().len(), 4);
    assert_eq!(reference.resumed_runs, 0);

    // The interrupted campaign: killed (sink starts failing) after two
    // records made it to disk.
    let mut dying_sink = FailingSink {
        inner: MemorySink::new(),
        fail_after: 2,
    };
    engine
        .run_streamed(&spec, &mut dying_sink)
        .expect_err("interrupted campaign aborts");
    let path = temp_path("resume");
    std::fs::write(&path, format!("{}\n", dying_sink.inner.lines().join("\n")))
        .expect("persist truncated stream");

    // Restart against the truncated file: only the missing cells execute.
    let mut resumed_sink = JsonlSink::open(&path).expect("reopen stream");
    assert_eq!(resumed_sink.prior_len(), 2);
    let resumed = engine
        .run_streamed(&spec, &mut resumed_sink)
        .expect("resumed campaign");
    assert_eq!(resumed.resumed_runs, 2);
    assert_eq!(resumed.runs.len(), 4);
    assert!(resumed.failures.is_empty());
    let executed: usize = resumed.scheduler.workers.iter().map(|w| w.runs).sum();
    assert_eq!(executed, 2, "resumed cells must not re-execute");

    // The merged file holds the whole grid and is, after dropping the
    // `timing` members, byte-identical to the uninterrupted
    // stream — the runs that executed reproduced the reference exactly.
    let merged = std::fs::read_to_string(&path).expect("read merged stream");
    let merged_lines: Vec<&str> = merged.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(merged_lines.len(), 4);
    for (line, reference_line) in merged_lines.iter().zip(reference_sink.lines()) {
        assert_eq!(
            deterministic_projection(line),
            deterministic_projection(reference_line),
        );
    }

    // The in-memory report agrees with the reference too, resumed records
    // included. The document rounds coordinates, so placements are
    // compared exactly as well.
    assert_eq!(
        deterministic_projection(&campaign_json(&resumed)),
        deterministic_projection(&campaign_json(&reference)),
    );
    for (a, b) in reference.runs.iter().zip(&resumed.runs) {
        assert_eq!(a.outcome.placement, b.outcome.placement);
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn resuming_a_complete_stream_executes_nothing() {
    let spec = serial_spec();
    let engine = CampaignEngine::new();
    let mut first = MemorySink::new();
    let original = engine
        .run_streamed(&spec, &mut first)
        .expect("streamed campaign");

    let mut replay = MemorySink::with_prior(first.lines().to_vec());
    let resumed = engine
        .run_streamed(&spec, &mut replay)
        .expect("resumed campaign");
    assert_eq!(resumed.resumed_runs, 4);
    assert!(replay.lines().is_empty(), "nothing new to emit");
    let executed: usize = resumed.scheduler.workers.iter().map(|w| w.runs).sum();
    assert_eq!(executed, 0);
    // The reconstructed records, and the aggregation over them, match the
    // original.
    assert_eq!(
        deterministic_projection(&campaign_json(&resumed)),
        deterministic_projection(&campaign_json(&original)),
    );
    for (a, b) in original.runs.iter().zip(&resumed.runs) {
        assert_eq!(a.outcome.placement, b.outcome.placement);
    }
}

#[test]
fn error_records_are_retried_on_resume() {
    // A stream whose only record is a failure: resuming retries that grid
    // cell instead of skipping it.
    let spec = serial_spec();
    let engine = CampaignEngine::new();
    let mut first = MemorySink::new();
    engine
        .run_streamed(&spec, &mut first)
        .expect("streamed campaign");
    let error_line = "{\"schema\":\"rlplanner.campaign-run/v1\",\"index\":0,\"status\":\"error\",\
         \"system\":\"resume-demo\",\"system_index\":0,\"method\":\"sa\",\"seed\":1,\
         \"error\":\"transient\"}";
    let mut replay = MemorySink::with_prior(vec![error_line.to_string()]);
    let resumed = engine
        .run_streamed(&spec, &mut replay)
        .expect("resumed campaign");
    assert_eq!(resumed.resumed_runs, 0);
    assert_eq!(resumed.runs.len(), 4, "the failed cell was retried");
    assert!(resumed.failures.is_empty());
    assert_eq!(replay.lines().len(), 4);
}

#[test]
fn mismatched_or_malformed_streams_are_rejected() {
    let spec = serial_spec();
    let engine = CampaignEngine::new();
    let mut first = MemorySink::new();
    engine
        .run_streamed(&spec, &mut first)
        .expect("streamed campaign");
    let lines = first.lines().to_vec();

    // Specs whose first run differs from the recorded one: by its seed,
    // its base budget or warm start, or its column's configuration under
    // the same label. Each is refused at the first line, naming the
    // manifest member that differs.
    let cooler = SaConfig {
        cooling_rate: 0.8,
        ..SaConfig::default()
    };
    for (other_spec, member) in [
        (spec_with(base(), SaConfig::default(), [9, 10]), "seed"),
        (
            spec_with(
                base().budget(Budget::Evaluations(13)),
                SaConfig::default(),
                [1, 2],
            ),
            "budget",
        ),
        (
            spec_with(base().warm_start(true), SaConfig::default(), [1, 2]),
            "warm_start",
        ),
        (spec_with(base(), cooler, [1, 2]), "method"),
    ] {
        let mut mismatched = MemorySink::with_prior(lines.clone());
        let err = engine
            .run_streamed(&other_spec, &mut mismatched)
            .expect_err("mismatched stream must be rejected");
        match err {
            CampaignError::Resume { line, ref reason } => {
                assert_eq!(line, 1, "{member}: {reason}");
                assert!(reason.contains(&format!("`{member}`")), "got: {reason}");
            }
            other => panic!("{member}: expected a resume error, got {other:?}"),
        }
        assert!(mismatched.lines().is_empty(), "{member}: nothing runs");
    }

    // A truncated (half-written) final line is named by line number.
    let mut truncated_lines = lines.clone();
    let last = truncated_lines.pop().unwrap();
    truncated_lines.push(last[..last.len() / 2].to_string());
    let mut truncated = MemorySink::with_prior(truncated_lines);
    let err = engine
        .run_streamed(&spec, &mut truncated)
        .expect_err("truncated line must be rejected");
    match err {
        CampaignError::Resume { line, ref reason } => {
            assert_eq!(line, 4);
            assert!(reason.contains("invalid JSON"), "got: {reason}");
        }
        other => panic!("expected a resume error, got {other:?}"),
    }

    // A duplicate grid index is rejected rather than silently overwritten.
    let mut duplicated_lines = lines;
    duplicated_lines.push(duplicated_lines[0].clone());
    let mut duplicated = MemorySink::with_prior(duplicated_lines);
    let err = engine
        .run_streamed(&spec, &mut duplicated)
        .expect_err("duplicate record must be rejected");
    match err {
        CampaignError::Resume { line, ref reason } => {
            assert_eq!(line, 5);
            assert!(reason.contains("duplicate"), "got: {reason}");
        }
        other => panic!("expected a resume error, got {other:?}"),
    }
}
