//! Plain-text graph I/O, so users can run the schemes on their own networks.
//!
//! The format is a whitespace-separated edge list with an optional header:
//!
//! ```text
//! # comments start with '#'
//! p <num_vertices>        (optional; inferred from edges when absent)
//! <u> <v> <weight>        (one undirected edge per line; weight optional, default 1)
//! ```
//!
//! Compatible with the common DIMACS-ish exports after stripping their
//! prefixes.

use std::fmt::Write as _;
use std::str::FromStr;

use crate::graph::{Graph, GraphBuilder, VertexId, Weight, MAX_TOTAL_WEIGHT};

/// A parse failure, with the offending 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseGraphError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseGraphError {}

/// The most vertices a graph file may declare or imply: ids are `u32`.
const MAX_VERTICES: usize = u32::MAX as usize;

/// Parse an edge list.
///
/// # Errors
///
/// Returns [`ParseGraphError`] on malformed lines, out-of-range endpoints,
/// self-loops, zero weights, duplicate edges, a declared or implied vertex
/// count above `u32::MAX` (checked before anything is allocated), or a total
/// edge weight above [`MAX_TOTAL_WEIGHT`] (named at the line where the sum
/// crosses it).
///
/// # Examples
///
/// ```
/// let g = graphs::io::parse_edge_list("p 3\n0 1 5\n1 2\n").unwrap();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 2);
/// ```
pub fn parse_edge_list(text: &str) -> Result<Graph, ParseGraphError> {
    let err = |line: usize, message: String| ParseGraphError { line, message };
    let mut declared_n: Option<usize> = None;
    let mut edges: Vec<(u32, u32, Weight, usize)> = Vec::new();
    let mut max_id = 0u32;
    let mut total: Weight = 0;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let first = parts.next().expect("non-empty line");
        if first == "p" {
            let n = parts
                .next()
                .ok_or_else(|| err(line_no, "header missing vertex count".into()))?;
            let n =
                usize::from_str(n).map_err(|_| err(line_no, format!("bad vertex count '{n}'")))?;
            if n > MAX_VERTICES {
                return Err(err(
                    line_no,
                    format!("vertex count {n} exceeds {MAX_VERTICES}"),
                ));
            }
            declared_n = Some(n);
            if parts.next().is_some() {
                return Err(err(line_no, "trailing tokens after header".into()));
            }
            continue;
        }
        let u = u32::from_str(first).map_err(|_| err(line_no, format!("bad vertex '{first}'")))?;
        let v_tok = parts
            .next()
            .ok_or_else(|| err(line_no, "edge missing second endpoint".into()))?;
        let v = u32::from_str(v_tok).map_err(|_| err(line_no, format!("bad vertex '{v_tok}'")))?;
        let w = match parts.next() {
            Some(tok) => {
                Weight::from_str(tok).map_err(|_| err(line_no, format!("bad weight '{tok}'")))?
            }
            None => 1,
        };
        if parts.next().is_some() {
            return Err(err(line_no, "trailing tokens after edge".into()));
        }
        let id = u.max(v);
        if id as usize >= MAX_VERTICES {
            return Err(err(
                line_no,
                format!("vertex {id} implies more than {MAX_VERTICES} vertices"),
            ));
        }
        if u == v {
            return Err(err(line_no, format!("self-loop at {u}")));
        }
        if w == 0 {
            return Err(err(line_no, "zero weight".into()));
        }
        total = total
            .checked_add(w)
            .filter(|&t| t <= MAX_TOTAL_WEIGHT)
            .ok_or_else(|| {
                err(
                    line_no,
                    format!("total edge weight exceeds {MAX_TOTAL_WEIGHT}"),
                )
            })?;
        max_id = max_id.max(u).max(v);
        edges.push((u, v, w, line_no));
    }
    let n = declared_n.unwrap_or((max_id as usize) + usize::from(!edges.is_empty()));
    let mut b = GraphBuilder::new(n);
    let mut seen = std::collections::HashSet::new();
    for (u, v, w, line_no) in edges {
        if u as usize >= n || v as usize >= n {
            return Err(err(line_no, format!("edge {u}-{v} out of range for n={n}")));
        }
        let key = (u.min(v), u.max(v));
        if !seen.insert(key) {
            return Err(err(line_no, format!("duplicate edge {u}-{v}")));
        }
        b.add_edge(VertexId(u), VertexId(v), w);
    }
    Ok(b.build())
}

/// Serialize a graph back to the edge-list format (round-trips through
/// [`parse_edge_list`]).
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p {}", g.num_vertices());
    for (u, v, w) in g.edges() {
        let _ = writeln!(out, "{} {} {}", u.0, v.0, w);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn parses_basic_file() {
        let g = parse_edge_list("# demo\np 4\n0 1 3\n1 2\n2 3 9\n").unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_weight(VertexId(1), VertexId(2)), Some(1));
        assert_eq!(g.edge_weight(VertexId(2), VertexId(3)), Some(9));
    }

    #[test]
    fn infers_vertex_count_without_header() {
        let g = parse_edge_list("0 5 2\n").unwrap();
        assert_eq!(g.num_vertices(), 6);
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = parse_edge_list("# nothing\n\n").unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn round_trips_generated_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(1001);
        let g = generators::erdos_renyi_connected(60, 0.08, 1..=50, &mut rng);
        let text = to_edge_list(&g);
        let back = parse_edge_list(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn reports_line_numbers_on_errors() {
        let e = parse_edge_list("p 3\n0 1 2\nbogus 2 1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn rejects_vertex_counts_beyond_u32_ids() {
        for (text, line, what) in [
            ("p 4294967296\n", 1, "vertex count 4294967296"),
            ("# big\np 18446744073709551615\n0 1\n", 2, "vertex count"),
            ("0 4294967295 1\n", 1, "vertex 4294967295"),
        ] {
            let e = parse_edge_list(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}");
            assert!(e.message.contains(what), "{text:?}: {}", e.message);
        }
        // The largest id a u32 graph can hold meets only the range check.
        let e = parse_edge_list("p 2\n0 4294967294 1\n").unwrap_err();
        assert!(e.message.contains("out of range"), "{}", e.message);
    }

    /// Vertex tokens any soup may hold: small ids, and ids that are refused
    /// before a vertex count is inferred from them (`u32::MAX`, too wide
    /// for `u32`, negative, not a number).
    const IDS: [&str; 10] = [
        "0",
        "1",
        "2",
        "3",
        "17",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "-1",
        "x",
    ];

    /// Ids near `u32::MAX` that a graph could hold. Without a header they
    /// would imply billions of vertices, so only a soup that declares a
    /// small vertex count holds them.
    const WIDE_IDS: [&str; 3] = ["4294967294", "4294967293", "4000000000"];

    /// Weight tokens: small, zero, negative, not a number, and sums that
    /// land on either side of `MAX_TOTAL_WEIGHT` and of `u64::MAX`.
    fn weights() -> Vec<String> {
        let max = MAX_TOTAL_WEIGHT;
        [1, 2, 100, max, max - 1, max / 2, max / 2 + 1, u64::MAX]
            .iter()
            .map(u64::to_string)
            .chain(["0", "-3", "w", "18446744073709551616"].map(String::from))
            .collect()
    }

    /// One line of token soup from a line kind and three picks.
    fn soup_line(kind: u8, a: usize, b: usize, c: usize, ids: &[&str]) -> String {
        let weights = weights();
        let (u, v, w) = (
            ids[a % ids.len()],
            ids[b % ids.len()],
            &weights[c % weights.len()],
        );
        match kind {
            0 | 1 => format!("{u} {v}"),
            2..=4 => format!("{u} {v} {w}"),
            5 => format!("{v} {u} {w}"),
            6 => format!("{u} {v} {w} {u}"),
            7 => u.to_string(),
            8 => format!("p {}", a % 40),
            9 => ["p", "p -1", "p 4294967296", "p 3 junk", "p x"][a % 5].to_string(),
            10 => format!("# {u} {v}"),
            11 => format!("  {u}\t{v}  "),
            _ => " ".repeat(a % 3),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn token_soup_parses_or_names_a_line_inside_the_input(
            lines in proptest::collection::vec((0u8..13, 0usize..64, 0usize..64, 0usize..64), 0..24),
            header in 0usize..26,
            n in 0usize..40,
        ) {
            // A header at `header` (none past the end) declares a small
            // count, which admits the wide ids; every other header a soup
            // holds is small or refused, so no parse allocates for more
            // than 40 vertices.
            let headed = header < lines.len() + 1;
            let wide: Vec<&str> = IDS.iter().chain(&WIDE_IDS).copied().collect();
            let ids = if headed { &wide[..] } else { &IDS[..] };
            let mut text: Vec<String> = lines
                .iter()
                .map(|&(kind, a, b, c)| soup_line(kind, a, b, c, ids))
                .collect();
            if headed {
                text.insert(header, format!("p {n}"));
            }
            let text = text.join("\n");
            match parse_edge_list(&text) {
                Ok(g) => {
                    let back = parse_edge_list(&to_edge_list(&g));
                    prop_assert_eq!(back, Ok(g));
                }
                Err(e) => {
                    prop_assert!(
                        (1..=text.lines().count()).contains(&e.line),
                        "line {} of {:?}: {}", e.line, text, e.message
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_structural_problems() {
        assert!(parse_edge_list("1 1 4\n")
            .unwrap_err()
            .message
            .contains("self-loop"));
        assert!(parse_edge_list("0 1 0\n")
            .unwrap_err()
            .message
            .contains("zero weight"));
        assert!(parse_edge_list("0 1\n1 0 5\n")
            .unwrap_err()
            .message
            .contains("duplicate"));
        assert!(parse_edge_list("p 2\n0 5 1\n")
            .unwrap_err()
            .message
            .contains("out of range"));
        assert!(parse_edge_list("0 1 2 junk\n")
            .unwrap_err()
            .message
            .contains("trailing"));
    }
}
