//! The construction's behavioural contract, pinned to the digit.
//!
//! The tree stage may be reorganised freely as long as every simulated
//! quantity stays put: ledger totals, the per-vertex memory peaks, and the
//! bytes of the encoded scheme. The pins below were recorded on the commit
//! before the tree stage moved into tree-local index space; a mismatch means
//! a charge, a meter call, an RNG draw or an output entry changed.

use graphs::{generators, Graph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{build, persist, BuildParams, Mode};

/// What one build is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    rounds: u64,
    messages: u64,
    tree_stage_rounds: u64,
    max_peak: usize,
    /// CRC32 over the per-vertex peaks as little-endian `u64`s.
    peaks_crc: u32,
    /// CRC32 of `encode_scheme`; the prior mode has no encoding, so there it
    /// is the CRC32 of the `Debug` rendering of tables, labels and pivots.
    scheme_crc: u32,
}

fn pin(g: &Graph, k: usize, mode: Mode) -> Pin {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let built = build(g, &BuildParams::new(k).with_mode(mode), &mut rng);
    let peaks: Vec<u8> = built
        .report
        .memory
        .peaks()
        .iter()
        .flat_map(|&p| (p as u64).to_le_bytes())
        .collect();
    let s = &built.scheme;
    let scheme_bytes = persist::encode_scheme(s).unwrap_or_else(|_| {
        let tables: Vec<_> = s.vertices().map(|v| s.table(v)).collect();
        let labels: Vec<_> = s.vertices().map(|v| s.label(v)).collect();
        let pivots: Vec<_> = s.vertices().map(|v| s.pivots(v)).collect();
        format!("{tables:?}{labels:?}{pivots:?}").into_bytes()
    });
    Pin {
        rounds: built.report.rounds,
        messages: built.report.messages,
        tree_stage_rounds: built.report.tree_stage_rounds,
        max_peak: built.report.memory.max_peak(),
        peaks_crc: persist::crc32(&peaks),
        scheme_crc: persist::crc32(&scheme_bytes),
    }
}

const MODES: [Mode; 3] = [
    Mode::Centralized,
    Mode::DistributedLowMemory,
    Mode::DistributedPrior,
];

fn check(g: &Graph, k: usize, want: [Pin; 3]) {
    for (mode, want) in MODES.into_iter().zip(want) {
        assert_eq!(pin(g, k, mode), want, "{mode:?}");
    }
}

#[test]
fn erdos_renyi_256_k2_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(7001);
    let g = generators::erdos_renyi_connected(256, 4.0 / 256.0, 1..=100, &mut rng);
    check(
        &g,
        2,
        [
            Pin {
                rounds: 0,
                messages: 0,
                tree_stage_rounds: 0,
                max_peak: 1130,
                peaks_crc: 1434617419,
                scheme_crc: 3681962766,
            },
            Pin {
                rounds: 36666,
                messages: 6414,
                tree_stage_rounds: 3035,
                max_peak: 2930,
                peaks_crc: 225215104,
                scheme_crc: 4242500722,
            },
            Pin {
                rounds: 36535,
                messages: 1635,
                tree_stage_rounds: 2821,
                max_peak: 5288,
                peaks_crc: 221054711,
                scheme_crc: 2890614443,
            },
        ],
    );
}

#[test]
fn torus_16x16_k3_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(7002);
    let g = generators::torus(16, 16, 1..=100, &mut rng);
    check(
        &g,
        3,
        [
            Pin {
                rounds: 0,
                messages: 0,
                tree_stage_rounds: 0,
                max_peak: 441,
                peaks_crc: 3157779328,
                scheme_crc: 3938959766,
            },
            Pin {
                rounds: 15951,
                messages: 4213,
                tree_stage_rounds: 2125,
                max_peak: 1083,
                peaks_crc: 299447093,
                scheme_crc: 4198435056,
            },
            Pin {
                rounds: 15629,
                messages: 778,
                tree_stage_rounds: 1781,
                max_peak: 1947,
                peaks_crc: 2486309895,
                scheme_crc: 2191683600,
            },
        ],
    );
}

#[test]
fn preferential_attachment_256_k3_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(7003);
    let g = generators::preferential_attachment(256, 2, 1..=100, &mut rng);
    check(
        &g,
        3,
        [
            Pin {
                rounds: 0,
                messages: 0,
                tree_stage_rounds: 0,
                max_peak: 395,
                peaks_crc: 182359566,
                scheme_crc: 1995897703,
            },
            Pin {
                rounds: 14074,
                messages: 4242,
                tree_stage_rounds: 1892,
                max_peak: 997,
                peaks_crc: 4145112779,
                scheme_crc: 1681073834,
            },
            Pin {
                rounds: 13887,
                messages: 780,
                tree_stage_rounds: 1695,
                max_peak: 1766,
                peaks_crc: 2873869121,
                scheme_crc: 2905613614,
            },
        ],
    );
}

#[test]
fn one_and_two_vertex_networks_build_in_every_mode() {
    let mut rng = ChaCha8Rng::seed_from_u64(7004);
    for n in [1usize, 2] {
        let g = generators::path(n, 1..=9, &mut rng);
        for mode in MODES {
            let built = build(&g, &BuildParams::new(2).with_mode(mode), &mut rng);
            assert_eq!(built.trees.len(), n, "{mode:?} n={n}");
            assert!(routing::verify::verify(&g, &built.scheme).is_empty());
            for t in &built.trees {
                assert_eq!(t.to_rooted(n).num_vertices(), t.len());
            }
        }
    }
}
