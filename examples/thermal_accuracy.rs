//! Table II — accuracy and speed of the fast thermal model.
//!
//! Generates a dataset of synthetic chiplet systems (the paper uses 2,000;
//! set `RLP_TABLE2_SYSTEMS` to change the default of 200), places each one
//! randomly, and compares the fast thermal model against the HotSpot-style
//! grid solver on every placement:
//!
//! * MSE / RMSE / MAE / MAPE of the predicted maximum temperature, and
//! * mean evaluation latency of both analyzers plus the resulting speed-up.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example thermal_accuracy
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rlp_benchmarks::{SyntheticConfig, SyntheticSystemGenerator};
use rlp_chiplet::PlacementGrid;
use rlp_sa::moves::random_initial_placement;
use rlp_thermal::{ErrorMetrics, GridThermalSolver, ThermalAnalyzer};
use rlplanner::cli::method_by_name;
use std::time::{Duration, Instant};

fn dataset_size() -> usize {
    std::env::var("RLP_TABLE2_SYSTEMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

fn main() {
    let count = dataset_size();
    // The CLI's fast backend, and the grid solver on the same package.
    let (_, fast_backend) = method_by_name("sa-fast", None).expect("a CLI method");
    let grid_solver = GridThermalSolver::new(fast_backend.config().clone());
    let placement_grid = PlacementGrid::new(16, 16);
    let mut generator = SyntheticSystemGenerator::new(SyntheticConfig::default(), 2024);
    let mut rng = ChaCha8Rng::seed_from_u64(99);

    println!("== Table II: fast thermal model vs grid (HotSpot-substitute) solver ==");
    println!("dataset: {count} synthetic chiplet systems (paper: 2,000)");

    let mut fast_predictions = Vec::with_capacity(count);
    let mut reference = Vec::with_capacity(count);
    let mut fast_time = Duration::ZERO;
    let mut grid_time = Duration::ZERO;
    let mut characterization_time = Duration::ZERO;
    let mut skipped = 0usize;

    let mut evaluated = 0usize;
    while evaluated < count {
        let system = generator.generate();
        let Ok(placement) = random_initial_placement(&system, &placement_grid, 0.2, &mut rng)
        else {
            skipped += 1;
            continue;
        };

        // Characterisation is a per-interposer offline step (the fast
        // backend runs it when built); its cost is reported separately,
        // exactly as the paper excludes table-building from the
        // per-evaluation timing.
        let t0 = Instant::now();
        let fast_model = fast_backend
            .build_for(&system)
            .expect("characterisation failed");
        characterization_time += t0.elapsed();

        let t1 = Instant::now();
        let fast = fast_model.max_temperature(&system, &placement).unwrap();
        fast_time += t1.elapsed();

        let t2 = Instant::now();
        let grid = grid_solver.max_temperature(&system, &placement).unwrap();
        grid_time += t2.elapsed();

        fast_predictions.push(fast);
        reference.push(grid);
        evaluated += 1;
    }

    let metrics = ErrorMetrics::compute(&fast_predictions, &reference);
    let fast_mean = fast_time.as_secs_f64() / evaluated as f64;
    let grid_mean = grid_time.as_secs_f64() / evaluated as f64;

    println!(
        "\n{:<28}{:>18}{:>18}",
        "metric", "fast thermal model", "grid solver"
    );
    println!(
        "{:<28}{:>18.4}{:>18}",
        "MSE (K^2)", metrics.mse, "ground truth"
    );
    println!("{:<28}{:>18.4}{:>18}", "RMSE (K)", metrics.rmse, "-");
    println!("{:<28}{:>18.4}{:>18}", "MAE (K)", metrics.mae, "-");
    println!("{:<28}{:>17.4}%{:>18}", "MAPE", metrics.mape * 100.0, "-");
    println!(
        "{:<28}{:>18.6}{:>18.6}",
        "inference time (s)", fast_mean, grid_mean
    );
    println!(
        "{:<28}{:>17.1}x{:>18}",
        "speed-up",
        grid_mean / fast_mean.max(1e-12),
        "1x"
    );
    println!(
        "\ncharacterisation (offline): {:.3} s per interposer on average",
        characterization_time.as_secs_f64() / evaluated as f64
    );
    if skipped > 0 {
        println!(
            "note: {skipped} generated systems had no legal 16x16-grid placement and were skipped"
        );
    }
    println!(
        "\npaper reference: MAE 0.2523 K, MAPE 0.0726 %, speed-up ~127x (HotSpot 12.9 s vs 0.10 s)"
    );
}
