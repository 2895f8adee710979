//! Churn observatory: seeded failure timelines with per-round health
//! telemetry for a routing scheme that is never told the network changed.
//!
//! The paper's scheme is built once; real networks then drift. This crate
//! measures the drift cost: a [`process`] plans a deterministic per-round
//! failure (and optional revival) schedule over the base graph, and
//! [`health`] walks that schedule, sampling a fixed routing probe, a traffic
//! burst, and the blast radius of the accumulated failures after every
//! round. A run returns the `churn_timeline` record itself
//! (`obs::churn::ChurnTimeline`, in [`ChurnRun::timeline`]) beside its engine
//! totals, the shape of a traffic run, and is surfaced by `drt churn` and
//! the `churn_degrade` bench group.
//!
//! The one-shot perturbation probe in `routing::audit` is the degenerate
//! single-event case of the same machinery: both run stale tables against a
//! `graphs::Overlay`-masked graph; churn just does it round after round
//! while the overlay evolves.
//!
//! # Examples
//!
//! ```
//! use churn::{ChurnConfig, ChurnScenario, ProcessKind};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
//! let g = graphs::generators::erdos_renyi_connected(48, 0.1, 1..=9, &mut rng);
//! let built = routing::build(&g, &routing::BuildParams::new(2), &mut rng);
//! let scenario = ChurnScenario {
//!     graph: &g,
//!     scheme: &built.scheme,
//!     config: ChurnConfig {
//!         process: ProcessKind::Targeted,
//!         rounds: 4,
//!         ..ChurnConfig::default()
//!     },
//! };
//! let run = scenario.run();
//! assert_eq!(run.timeline.rounds.len(), 5); // intact baseline + 4 churn rounds
//! let reach = run.timeline.reachability_series();
//! assert!(reach.windows(2).all(|w| w[1] <= w[0]), "monotone without revival");
//! ```

pub mod health;
pub mod process;

pub use health::{ChurnConfig, ChurnRun, ChurnScenario, DEFAULT_SEED, MAX_ROUNDS};
pub use process::{apply, plan_schedule, ChurnEvent, ProcessKind, RoundEvents, ScheduleParams};
