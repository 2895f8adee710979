//! Ablations for the design choices `DESIGN.md` §4 calls out.
//!
//! 1. **Pointer jumping vs naive virtual-tree walk** — Algorithm 1 does
//!    `log n` broadcast phases (`Õ(qn + D)` rounds); the naive alternative
//!    walks the virtual tree edge by edge, `O(depth(T') · D)` rounds.
//! 2. **On-the-fly `E'` vs materialized `G'`** — the words a virtual vertex
//!    would store if `E'` were materialized, versus what our pipeline's
//!    virtual vertices actually peak at.
//! 3. **Range partition (Alg. 5) vs degree-proportional memory** — the O(1)
//!    extra words of the log-round sibling prefix-sum versus storing all
//!    children's sizes at the parent (max-degree words).
//! 4. **Hopset-accelerated vs plain bounded Bellman–Ford** — iterations to
//!    convergence with and without the hopset.
//!
//! Run with: `cargo run --release -p bench --bin ablations`
//!
//! `--report <path>` (or `DRT_REPORT`) writes a JSONL run report with one
//! `ablations/<name>/n<n>` span per observed build (ablation 3 is pure
//! arithmetic and records nothing).

use std::process::ExitCode;

use bench::sweep::{exit_code, Sweep};
use bench::{print_header, print_row, Family};
use congest::{MemoryMeter, Network};
use graphs::{tree, VertexId};
use hopset::bellman_ford::LimitedBf;
use hopset::construction::{build as build_hopset, HopsetParams};
use hopset::{Hopset, VirtualGraph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tree_routing::distributed;

fn main() -> ExitCode {
    let mut sweep = Sweep::from_env("ablations");
    ablation_pointer_jumping(&mut sweep.rec);
    ablation_materialization(&mut sweep.rec);
    ablation_range_partition();
    ablation_hopset_bf(&mut sweep.rec);
    ablation_hopset_families(&mut sweep.rec);
    exit_code(sweep.finish())
}

fn ablation_pointer_jumping(rec: &mut obs::Recorder) {
    println!("== Ablation 1: pointer jumping vs naive virtual-tree walk ==");
    println!("(path networks: the deep-tree, large-D worst case the paper targets)");
    let widths = [8, 8, 8, 8, 14, 16];
    print_header(
        &["n", "D", "|U(T)|", "dep(T')", "jump rounds", "naive rounds"],
        &widths,
    );
    for n in [1024usize, 4096, 16384] {
        let mut rng = ChaCha8Rng::seed_from_u64(0x91 + n as u64);
        let g = graphs::generators::path(n, 1..=9, &mut rng);
        let t = tree::shortest_path_tree(&g, VertexId(0));
        let net = Network::new(g);
        let span = rec.begin(&format!("ablations/pointer-jumping/n{n}"));
        let out = distributed::build(&net, &t, &distributed::Config::default(), &mut rng, rec);
        rec.end_with_memory(span, out.memory.peaks());
        let d = out.bfs_depth as u64;
        let iters = (n as f64).log2().ceil() as u64;
        // The three global stages under pointer jumping: log n broadcast
        // phases of |U(T)| messages each (Lemma 1: |U| + D rounds).
        let jump = 3 * iters * (out.virtual_count as u64 + d);
        // Naive alternative: walk T' edge by edge; each virtual edge message
        // travels through G, up to D rounds, depth(T') times per stage.
        let naive = 3 * (out.virtual_depth as u64) * d.max(1);
        print_row(
            &[
                n.to_string(),
                d.to_string(),
                out.virtual_count.to_string(),
                out.virtual_depth.to_string(),
                jump.to_string(),
                naive.to_string(),
            ],
            &widths,
        );
    }
    println!("(both columns price only the global stages; with depth(T') ≈ √n and");
    println!(" D ≈ n the naive walk costs ~n^1.5 versus pointer jumping's ~n log n)\n");
}

fn ablation_materialization(rec: &mut obs::Recorder) {
    println!("== Ablation 2: on-the-fly E' vs materialized G' (per-vertex words) ==");
    let widths = [8, 8, 18, 18];
    print_header(&["n", "|V'|", "ours (peak)", "materialized E'"], &widths);
    for n in [256usize, 1024, 4096] {
        let mut rng = ChaCha8Rng::seed_from_u64(0x92 + n as u64);
        let g = Family::ErdosRenyi.generate(n, &mut rng);
        let virt = VirtualGraph::sample(&g, 1.0 / (n as f64).sqrt(), &mut rng);
        let m = virt.virtual_vertices().len();
        if m == 0 {
            continue;
        }
        // What the paper avoids: every virtual vertex stores its E' edges.
        let edges = virt.materialize(&g);
        let mut deg = vec![0usize; n];
        for &(u, v, _) in &edges {
            deg[u.index()] += 2;
            deg[v.index()] += 2;
        }
        let materialized = deg.iter().copied().max().unwrap_or(0);
        // What our pipeline's virtual vertices actually hold: hopset
        // out-edges plus O(levels) scratch.
        let mut mem = MemoryMeter::new(n);
        let span = rec.begin(&format!("ablations/materialization/n{n}"));
        let _ = build_hopset(
            &g,
            &virt,
            HopsetParams::default(),
            8,
            rec,
            &mut mem,
            &mut rng,
        );
        rec.end_with_memory(span, mem.peaks());
        print_row(
            &[
                n.to_string(),
                m.to_string(),
                mem.max_peak().to_string(),
                materialized.to_string(),
            ],
            &widths,
        );
    }
    println!("(the materialized column grows like |V'| ≈ √n; ours like the hopset arboricity)\n");
}

fn ablation_range_partition() {
    println!("== Ablation 3: Algorithm 5 vs degree-proportional range splitting ==");
    let widths = [8, 12, 18, 20];
    print_header(
        &["n", "max degree", "Alg.5 extra words", "naive extra words"],
        &widths,
    );
    for n in [512usize, 2048, 8192] {
        let mut rng = ChaCha8Rng::seed_from_u64(0x93 + n as u64);
        let g = Family::ScaleFree.generate(n, &mut rng);
        let t = tree::shortest_path_tree(&g, VertexId(0));
        // Naive: each internal vertex stores all children's subtree sizes to
        // split its DFS range — max tree-degree words at the worst vertex.
        let naive = t.vertices().map(|v| t.children(v).len()).max().unwrap_or(0);
        print_row(
            &[
                n.to_string(),
                g.max_degree().to_string(),
                "2".into(), // own size + running prefix
                naive.to_string(),
            ],
            &widths,
        );
    }
    println!("(Alg. 5 lets every child learn its sibling prefix sum with O(1) words in");
    println!(" 2·log n rounds; the naive scheme pins tree-degree words at hub vertices)\n");
}

fn ablation_hopset_bf(rec: &mut obs::Recorder) {
    println!("== Ablation 4: Bellman-Ford iterations with vs without the hopset ==");
    println!("(path networks with B = 2√n: long virtual chains, the case hopsets exist for)");
    let widths = [8, 8, 12, 14];
    print_header(&["n", "|V'|", "with hopset", "plain E' only"], &widths);
    for n in [1024usize, 4096, 16384] {
        let mut rng = ChaCha8Rng::seed_from_u64(0x94 + n as u64);
        let g = graphs::generators::path(n, 1..=9, &mut rng);
        // Evenly spaced virtual vertices (spacing √n/2) keep E' connected
        // under the deliberately small B below; B is set under the paper's
        // 4√n·ln n default so E' only links nearby virtual vertices and
        // plain E'-steps need ~n/B iterations.
        let spacing = ((n as f64).sqrt() as usize / 2).max(1);
        let verts: Vec<VertexId> = (0..n)
            .step_by(spacing)
            .map(|i| VertexId(i as u32))
            .collect();
        let b = 2 * (n as f64).sqrt() as usize;
        let virt = VirtualGraph::from_set(&g, verts, b);
        let mut mem = MemoryMeter::new(n);
        let span = rec.begin(&format!("ablations/hopset-bf/n{n}"));
        let hs = build_hopset(
            &g,
            &virt,
            HopsetParams::default(),
            8,
            rec,
            &mut mem,
            &mut rng,
        );
        rec.end_with_memory(span, mem.peaks());
        let empty = Hopset::new(n);
        let root = virt.virtual_vertices()[0];
        let run = |h: &Hopset| {
            let unpriced = &mut obs::Recorder::disabled();
            let mut mem = MemoryMeter::new(n);
            LimitedBf {
                g: &g,
                virt: &virt,
                hopset: h,
            }
            .run(&[(root, 0)], &|_, _| true, 4 * n, 8, unpriced, &mut mem)
            .beta_used
        };
        print_row(
            &[
                n.to_string(),
                virt.virtual_vertices().len().to_string(),
                run(&hs.hopset).to_string(),
                run(&empty).to_string(),
            ],
            &widths,
        );
    }
    println!("(each iteration costs a B-bounded exploration — fewer iterations is the");
    println!(" whole point of the hopset)\n");
}

fn ablation_hopset_families(rec: &mut obs::Recorder) {
    println!("== Ablation 5: bunch hopset vs superclustering-and-interconnection ==");
    let widths = [8, 8, 10, 10, 8, 8, 8];
    print_header(
        &[
            "n", "|V'|", "edges-b", "edges-sc", "arb-b", "arb-sc", "beta",
        ],
        &widths,
    );
    for n in [512usize, 2048] {
        let mut rng = ChaCha8Rng::seed_from_u64(0x95 + n as u64);
        let g = Family::ErdosRenyi.generate(n, &mut rng);
        let virt = VirtualGraph::sample(&g, 1.5 / (n as f64).sqrt(), &mut rng);
        if virt.virtual_vertices().len() < 3 {
            continue;
        }
        let mut mem = MemoryMeter::new(n);
        let span = rec.begin(&format!("ablations/hopset-families/n{n}/bunch"));
        let bunch = build_hopset(
            &g,
            &virt,
            HopsetParams::default(),
            8,
            rec,
            &mut mem,
            &mut rng,
        );
        rec.end_with_memory(span, mem.peaks());
        let span = rec.begin(&format!("ablations/hopset-families/n{n}/sc"));
        let sc = hopset::superclustering::build_sc(
            &g,
            &virt,
            HopsetParams::default(),
            0.25,
            8,
            rec,
            &mut mem,
            &mut rng,
        );
        rec.end_with_memory(span, mem.peaks());
        let root = virt.virtual_vertices()[0];
        let beta = |h: &Hopset| {
            let unpriced = &mut obs::Recorder::disabled();
            let mut mem = MemoryMeter::new(n);
            LimitedBf {
                g: &g,
                virt: &virt,
                hopset: h,
            }
            .run(&[(root, 0)], &|_, _| true, 4 * n, 8, unpriced, &mut mem)
            .beta_used
        };
        print_row(
            &[
                n.to_string(),
                virt.virtual_vertices().len().to_string(),
                bunch.hopset.num_edges().to_string(),
                sc.hopset.num_edges().to_string(),
                bunch.stats.arboricity.to_string(),
                sc.stats.arboricity.to_string(),
                format!("{}/{}", beta(&bunch.hopset), beta(&sc.hopset)),
            ],
            &widths,
        );
    }
    println!("(the two Theorem-1 hopset families trade size/arboricity against the");
    println!(" per-scale structure; both plug into the same Lemma-2 Bellman-Ford)");
}
