//! The construction's behavioural contract, pinned to the digit.
//!
//! The tree stage may be reorganised freely as long as every simulated
//! quantity stays put: ledger totals, the per-vertex memory peaks, and the
//! bytes of the encoded scheme. The pins below were recorded on the commit
//! before the tree stage moved into tree-local index space; a mismatch means
//! a charge, a meter call, an RNG draw or an output entry changed.

use std::fmt::Write;

use graphs::{generators, Graph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{build, persist, prior, BuildParams, BuildReport, Mode};

/// What one build is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    rounds: u64,
    messages: u64,
    tree_stage_rounds: u64,
    max_peak: usize,
    /// CRC32 over the per-vertex peaks as little-endian `u64`s.
    peaks_crc: u32,
    /// CRC32 of `encode_scheme`. The \[EN16b\]-style baseline has no
    /// encoding, so there it is the CRC32 of its rows, one per line, vertex
    /// by vertex: `root level dist {table:?}` per table row, then
    /// `level pivot dist {label:?}` per label row.
    scheme_crc: u32,
}

fn pin_of(report: &BuildReport, scheme_bytes: &[u8]) -> Pin {
    let peaks: Vec<u8> = report
        .memory
        .peaks()
        .iter()
        .flat_map(|&p| (p as u64).to_le_bytes())
        .collect();
    Pin {
        rounds: report.rounds,
        messages: report.messages,
        tree_stage_rounds: report.tree_stage_rounds,
        max_peak: report.memory.max_peak(),
        peaks_crc: persist::crc32(&peaks),
        scheme_crc: persist::crc32(scheme_bytes),
    }
}

fn pin(g: &Graph, k: usize, mode: Mode) -> Pin {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let built = build(g, &BuildParams::new(k).with_mode(mode), &mut rng);
    pin_of(&built.report, &persist::encode_scheme(&built.scheme))
}

fn pin_prior(g: &Graph, k: usize) -> Pin {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let built = prior::build(g, k, &mut rng);
    let s = &built.scheme;
    let mut rows = String::new();
    for (table, label) in s.tables.iter().zip(&s.labels) {
        for e in table {
            let (root, table) = (e.root.0, &e.table);
            writeln!(rows, "{root} {} {} {table:?}", e.level, e.dist).unwrap();
        }
        for e in label {
            let (pivot, label) = (e.pivot.0, &e.tree_label);
            writeln!(rows, "{} {pivot} {} {label:?}", e.level, e.dist).unwrap();
        }
    }
    pin_of(&built.report, rows.as_bytes())
}

const MODES: [Mode; 2] = [Mode::Centralized, Mode::DistributedLowMemory];

/// `want` holds the two modes' pins, then the baseline's.
fn check(g: &Graph, k: usize, want: [Pin; 3]) {
    let [centralized, ours, baseline] = want;
    for (mode, want) in MODES.into_iter().zip([centralized, ours]) {
        assert_eq!(pin(g, k, mode), want, "{mode:?}");
    }
    assert_eq!(pin_prior(g, k), baseline, "EN16b-style baseline");
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
                scheme_crc: 2817017847,
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
                scheme_crc: 444046813,
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
                scheme_crc: 456181782,
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
        let built = prior::build(&g, 2, &mut rng);
        assert_eq!(built.report.cluster_count, n, "baseline n={n}");
        for s in g.vertices() {
            for t in g.vertices() {
                assert!(prior::route(&g, &built.scheme, s, t).is_ok(), "{s} -> {t}");
            }
        }
    }
}
