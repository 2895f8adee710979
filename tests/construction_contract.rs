//! The construction's behavioural contract, pinned to the digit.
//!
//! The tree stage may be reorganised freely as long as every simulated
//! quantity stays put: cost totals, their attribution to spans, the
//! per-vertex memory peaks, and the bytes of the encoded scheme. The pins
//! below were recorded on the commit before the tree stage moved into
//! tree-local index space (`spans_crc` on the commit before the cost account
//! moved onto the recorder); a mismatch means a charge, a span, a meter call,
//! an RNG draw or an output entry changed.

use std::fmt::Write;

use graphs::{generators, Graph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing::{build, build_observed, persist, prior, BuildParams, BuildReport, Mode};

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
    /// CRC32 of the whole file `save_scheme_to` writes, the
    /// `encode_container` bytes. The baseline has no file: `None`.
    file_crc: Option<u32>,
    /// CRC32 over the spans of the same build made on a live recorder, one
    /// line per span in begin order: `name depth parent rounds messages words
    /// broadcasts peak_memory_words` (no wall clock).
    spans_crc: u32,
}

fn pin_of(
    report: &BuildReport,
    scheme_bytes: &[u8],
    file: Option<&[u8]>,
    rec: &obs::Recorder,
) -> Pin {
    let mut spans = String::new();
    for s in rec.spans() {
        let d = &s.delta;
        writeln!(
            spans,
            "{} {} {:?} {} {} {} {} {}",
            s.name,
            s.depth,
            s.parent,
            d.rounds,
            d.messages,
            d.words,
            d.broadcasts,
            s.peak_memory_words
        )
        .unwrap();
    }
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
        file_crc: file.map(persist::crc32),
        spans_crc: persist::crc32(spans.as_bytes()),
    }
}

/// The recorder of `build` run again on a live recorder from the same seed.
fn spans_of<T>(build: impl FnOnce(&mut ChaCha8Rng, &mut obs::Recorder) -> T) -> obs::Recorder {
    let mut rec = obs::Recorder::new();
    build(&mut ChaCha8Rng::seed_from_u64(2024), &mut rec);
    rec
}

fn pin(g: &Graph, k: usize, mode: Mode) -> Pin {
    let params = BuildParams::new(k).with_mode(mode);
    let built = build(g, &params, &mut ChaCha8Rng::seed_from_u64(2024));
    let file = persist::encode_container(&built.scheme).unwrap();
    let rec = spans_of(|rng, rec| build_observed(g, &params, rng, rec));
    pin_of(
        &built.report,
        &persist::encode_scheme(&built.scheme),
        Some(&file),
        &rec,
    )
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
    let rec = spans_of(|rng, rec| prior::build_observed(g, k, rng, rec));
    pin_of(&built.report, rows.as_bytes(), None, &rec)
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
                file_crc: Some(1498944229),
                spans_crc: 2978566645,
            },
            Pin {
                rounds: 36666,
                messages: 6414,
                tree_stage_rounds: 3035,
                max_peak: 2930,
                peaks_crc: 225215104,
                scheme_crc: 4242500722,
                file_crc: Some(757117835),
                spans_crc: 3943825737,
            },
            Pin {
                rounds: 36535,
                messages: 1635,
                tree_stage_rounds: 2821,
                max_peak: 5288,
                peaks_crc: 221054711,
                scheme_crc: 2817017847,
                file_crc: None,
                spans_crc: 1555685789,
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
                file_crc: Some(631208404),
                spans_crc: 580371442,
            },
            Pin {
                rounds: 15951,
                messages: 4213,
                tree_stage_rounds: 2125,
                max_peak: 1083,
                peaks_crc: 299447093,
                scheme_crc: 4198435056,
                file_crc: Some(2077773708),
                spans_crc: 4192289088,
            },
            Pin {
                rounds: 15629,
                messages: 778,
                tree_stage_rounds: 1781,
                max_peak: 1947,
                peaks_crc: 2486309895,
                scheme_crc: 444046813,
                file_crc: None,
                spans_crc: 1200677716,
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
                file_crc: Some(3398307265),
                spans_crc: 2135152201,
            },
            Pin {
                rounds: 14074,
                messages: 4242,
                tree_stage_rounds: 1892,
                max_peak: 997,
                peaks_crc: 4145112779,
                scheme_crc: 1681073834,
                file_crc: Some(858289140),
                spans_crc: 2810214340,
            },
            Pin {
                rounds: 13887,
                messages: 780,
                tree_stage_rounds: 1695,
                max_peak: 1766,
                peaks_crc: 2873869121,
                scheme_crc: 456181782,
                file_crc: None,
                spans_crc: 2703401747,
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

/// One standalone tree simulation (`distributed::build` with its own
/// BFS backbone, the path behind `table2` and the `fig_*_vs_n` binaries) on a
/// shortest-path tree, rendered as one line: the run's cost totals, every
/// `tree/*` span's name and counter delta, the CRC32 of the per-member peaks
/// (little-endian `u64`s) and the CRC32 of the tree scheme's rows (one line
/// per member: `id {table:?} {label:?}`).
fn standalone_pin(g: &Graph, q: Option<f64>) -> String {
    use tree_routing::distributed;

    let n = g.num_vertices();
    let tree = graphs::tree::shortest_path_tree(g, graphs::VertexId((n / 2) as u32));
    let network = congest::Network::new(g.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(2025);
    let mut rec = obs::Recorder::new();
    let config = distributed::Config {
        q,
        backbone_depth: None,
    };
    let out = distributed::build(&network, &tree, &config, &mut rng, &mut rec);
    let c = out.cost;
    let mut line = format!(
        "ledger {}/{}/{}/{}",
        c.rounds, c.messages, c.words, c.broadcasts
    );
    for s in rec.spans() {
        let d = &s.delta;
        let (r, m, w, b) = (d.rounds, d.messages, d.words, d.broadcasts);
        write!(line, " {}={r}/{m}/{w}/{b}", s.name).unwrap();
    }
    let peaks: Vec<u8> = out
        .memory
        .peaks()
        .iter()
        .flat_map(|&p| (p as u64).to_le_bytes())
        .collect();
    let mut rows = String::new();
    for ((v, table), label) in tree.members().iter().zip(&out.tables).zip(&out.labels) {
        writeln!(rows, "{} {table:?} {label:?}", v.0).unwrap();
    }
    write!(
        line,
        " peaks {} rows {}",
        persist::crc32(&peaks),
        persist::crc32(rows.as_bytes())
    )
    .unwrap();
    line
}

/// The graphs the standalone pins run on: Erdős–Rényi at n ∈ {1, 2, 300}
/// and tori of 3 × 3 and 15 × 20 (a torus needs both sides > 2).
fn standalone_graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = ChaCha8Rng::seed_from_u64(7005);
    let mut er = |n: usize| {
        generators::erdos_renyi_connected(n, (4.0 / n as f64).min(1.0), 1..=100, &mut rng)
    };
    let (er1, er2, er300) = (er(1), er(2), er(300));
    let mut rng = ChaCha8Rng::seed_from_u64(7006);
    let torus9 = generators::torus(3, 3, 1..=100, &mut rng);
    let torus300 = generators::torus(15, 20, 1..=100, &mut rng);
    vec![
        ("er1", er1),
        ("er2", er2),
        ("er300", er300),
        ("torus9", torus9),
        ("torus300", torus300),
    ]
}

#[test]
fn standalone_tree_simulation_is_pinned() {
    let want = [
        "er1 q=default: ledger 15/3/3/3 tree/backbone=0/0/0/0 tree/partition=1/0/0/0 tree/subtree-sizes=4/1/1/1 tree/light-edges=5/1/1/1 tree/dfs-ranges=5/1/1/1 tree/finalize=0/0/0/0 peaks 1890110811 rows 3544770294",
        "er1 q=0: ledger 15/3/3/3 tree/backbone=0/0/0/0 tree/partition=1/0/0/0 tree/subtree-sizes=4/1/1/1 tree/light-edges=5/1/1/1 tree/dfs-ranges=5/1/1/1 tree/finalize=0/0/0/0 peaks 1890110811 rows 3544770294",
        "er1 q=1: ledger 15/3/3/3 tree/backbone=0/0/0/0 tree/partition=1/0/0/0 tree/subtree-sizes=4/1/1/1 tree/light-edges=5/1/1/1 tree/dfs-ranges=5/1/1/1 tree/finalize=0/0/0/0 peaks 1890110811 rows 3544770294",
        "er2 q=default: ledger 27/5/5/3 tree/backbone=2/2/2/0 tree/partition=2/0/0/0 tree/subtree-sizes=7/1/1/1 tree/light-edges=8/1/1/1 tree/dfs-ranges=8/1/1/1 tree/finalize=0/0/0/0 peaks 2961345749 rows 943783512",
        "er2 q=0: ledger 27/5/5/3 tree/backbone=2/2/2/0 tree/partition=2/0/0/0 tree/subtree-sizes=7/1/1/1 tree/light-edges=8/1/1/1 tree/dfs-ranges=8/1/1/1 tree/finalize=0/0/0/0 peaks 2961345749 rows 943783512",
        "er2 q=1: ledger 23/8/8/3 tree/backbone=2/2/2/0 tree/partition=1/0/0/0 tree/subtree-sizes=6/2/2/1 tree/light-edges=7/2/2/1 tree/dfs-ranges=7/2/2/1 tree/finalize=0/0/0/0 peaks 1982285024 rows 943783512",
        "er300 q=default: ledger 1302/2877/2877/27 tree/backbone=6/1816/1816/0 tree/partition=9/0/0/0 tree/subtree-sizes=217/153/153/9 tree/light-edges=836/755/755/9 tree/dfs-ranges=234/153/153/9 tree/finalize=0/0/0/0 peaks 351633863 rows 554126323",
        "er300 q=0: ledger 268/1843/1843/27 tree/backbone=6/1816/1816/0 tree/partition=9/0/0/0 tree/subtree-sizes=73/9/9/9 tree/light-edges=90/9/9/9 tree/dfs-ranges=90/9/9/9 tree/finalize=0/0/0/0 peaks 3825883646 rows 554126323",
        "er300 q=1: ledger 16857/18488/18488/27 tree/backbone=6/1816/1816/0 tree/partition=1/0/0/0 tree/subtree-sizes=2748/2700/2700/9 tree/light-edges=11337/11272/11272/9 tree/dfs-ranges=2765/2700/2700/9 tree/finalize=0/0/0/0 peaks 2885351191 rows 554126323",
        "torus9 q=default: ledger 102/80/80/12 tree/backbone=3/36/36/0 tree/partition=2/0/0/0 tree/subtree-sizes=25/12/12/4 tree/light-edges=40/20/20/4 tree/dfs-ranges=32/12/12/4 tree/finalize=0/0/0/0 peaks 2854491960 rows 518069818",
        "torus9 q=0: ledger 84/48/48/12 tree/backbone=3/36/36/0 tree/partition=4/0/0/0 tree/subtree-sizes=21/4/4/4 tree/light-edges=28/4/4/4 tree/dfs-ranges=28/4/4/4 tree/finalize=0/0/0/0 peaks 585001427 rows 518069818",
        "torus9 q=1: ledger 193/178/178/12 tree/backbone=3/36/36/0 tree/partition=1/0/0/0 tree/subtree-sizes=47/36/36/4 tree/light-edges=88/70/70/4 tree/dfs-ranges=54/36/36/4 tree/finalize=0/0/0/0 peaks 2627953591 rows 518069818",
        "torus300 q=default: ledger 1627/2145/2145/27 tree/backbone=18/1200/1200/0 tree/partition=24/0/0/0 tree/subtree-sizes=355/153/153/9 tree/light-edges=858/639/639/9 tree/dfs-ranges=372/153/153/9 tree/finalize=0/0/0/0 peaks 827381574 rows 2318109054",
        "torus300 q=0: ledger 709/1227/1227/27 tree/backbone=18/1200/1200/0 tree/partition=24/0/0/0 tree/subtree-sizes=211/9/9/9 tree/light-edges=228/9/9/9 tree/dfs-ranges=228/9/9/9 tree/finalize=0/0/0/0 peaks 824545881 rows 2318109054",
        "torus300 q=1: ledger 15297/15976/15976/27 tree/backbone=18/1200/1200/0 tree/partition=1/0/0/0 tree/subtree-sizes=2856/2700/2700/9 tree/light-edges=9549/9376/9376/9 tree/dfs-ranges=2873/2700/2700/9 tree/finalize=0/0/0/0 peaks 4200792772 rows 2318109054",
    ];
    let mut got = Vec::new();
    for (name, g) in standalone_graphs() {
        for (qname, q) in [("default", None), ("0", Some(0.0)), ("1", Some(1.0))] {
            got.push(format!("{name} q={qname}: {}", standalone_pin(&g, q)));
        }
    }
    assert_eq!(got, want);
}

/// One superclustering hopset (`hopset::superclustering::build_sc`, the
/// alternative construction behind Ablation 5) rendered as one line: the
/// cost totals, the edge count, the CRC32 of the per-vertex peaks
/// (little-endian `u64`s) and the CRC32 of its records, one line per record
/// in out-edge order: `owner to weight path`.
fn superclustering_pin(g: &Graph, virt_p: f64, levels: usize, seed: u64) -> String {
    use hopset::{superclustering, HopsetParams, VirtualGraph};

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let virt = VirtualGraph::sample(g, virt_p, &mut rng);
    if virt.virtual_vertices().is_empty() {
        return "no virtual vertices".to_string();
    }
    let mut rec = obs::Recorder::disabled();
    let mut memory = congest::MemoryMeter::new(g.num_vertices());
    let params = HopsetParams { levels };
    let out = superclustering::build_sc(g, &virt, params, 0.25, 8, &mut rec, &mut memory, &mut rng);
    let h = &out.hopset;
    let mut rows = String::new();
    for u in g.vertices() {
        for (j, e) in h.out_edges(u).iter().enumerate() {
            let path: Vec<u32> = h.path(u, j).iter().map(|v| v.0).collect();
            writeln!(rows, "{} {} {} {path:?}", u.0, e.to.0, e.weight).unwrap();
        }
    }
    let peaks: Vec<u8> = memory
        .peaks()
        .iter()
        .flat_map(|&p| (p as u64).to_le_bytes())
        .collect();
    let c = rec.totals();
    format!(
        "ledger {}/{}/{}/{} edges {} peaks {} records {}",
        c.rounds,
        c.messages,
        c.words,
        c.broadcasts,
        h.num_edges(),
        persist::crc32(&peaks),
        persist::crc32(rows.as_bytes())
    )
}

#[test]
fn superclustering_hopset_is_pinned() {
    let want = [
        "tied seed=8001 levels=1: ledger 897/746/746/16 edges 588 peaks 3282256871 records 2805210503",
        "tied seed=8001 levels=2: ledger 1270/1050/1050/24 edges 388 peaks 369441570 records 3642798793",
        "wide seed=8001 levels=1: ledger 2868/1869/1869/36 edges 981 peaks 582902640 records 4173708629",
        "wide seed=8001 levels=2: ledger 4006/2734/2734/54 edges 563 peaks 1200619241 records 4143181395",
        "path seed=8001 levels=1: ledger 2486/1205/1205/40 edges 819 peaks 3455949136 records 867363565",
        "path seed=8001 levels=2: ledger 3287/1589/1589/60 edges 434 peaks 2086278019 records 4109953250",
        "tied seed=8002 levels=1: ledger 809/658/658/16 edges 508 peaks 1477464650 records 1769193845",
        "tied seed=8002 levels=2: ledger 1214/994/994/24 edges 456 peaks 1905801518 records 4123979276",
        "wide seed=8002 levels=1: ledger 2607/1608/1608/36 edges 989 peaks 1156833818 records 3132788166",
        "wide seed=8002 levels=2: ledger 3610/2338/2338/54 edges 410 peaks 2415463576 records 1773518923",
        "path seed=8002 levels=1: ledger 2409/1128/1128/40 edges 553 peaks 334502157 records 3663481546",
        "path seed=8002 levels=2: ledger 3187/1489/1489/60 edges 432 peaks 3681883987 records 1787039214",
        "tied seed=8003 levels=1: ledger 1016/809/809/20 edges 687 peaks 3581532655 records 1710464310",
        "tied seed=8003 levels=2: ledger 1470/1174/1174/30 edges 508 peaks 980245075 records 2881488696",
        "wide seed=8003 levels=1: ledger 2718/1719/1719/36 edges 541 peaks 84947656 records 2119666779",
        "wide seed=8003 levels=2: ledger 3837/2565/2565/54 edges 569 peaks 2701307868 records 1489450732",
        "path seed=8003 levels=1: ledger 2422/1141/1141/40 edges 610 peaks 3545541780 records 1708774123",
        "path seed=8003 levels=2: ledger 3314/1616/1616/60 edges 474 peaks 2882794771 records 1169488471",
    ];
    let mut got = Vec::new();
    for seed in [8001u64, 8002, 8003] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let tied = generators::erdos_renyi_connected(200, 0.02, 1..=3, &mut rng);
        let wide = generators::erdos_renyi_connected(200, 0.02, 1..=100, &mut rng);
        let path = generators::path(150, 1..=3, &mut rng);
        for (name, g) in [("tied", &tied), ("wide", &wide), ("path", &path)] {
            for levels in [1, 2] {
                let line = superclustering_pin(g, 0.3, levels, seed);
                got.push(format!("{name} seed={seed} levels={levels}: {line}"));
            }
        }
    }
    assert_eq!(got, want);
}
